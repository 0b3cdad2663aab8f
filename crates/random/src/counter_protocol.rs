//! The §6.1 counter machine as a *bona fide population protocol*.
//!
//! [`crate::counter_sim`] executes the leader's program with a
//! discrete-event loop, which is faithful to interaction counts but is not
//! literally a `δ : Q × Q → Q × Q` table. This module is: given a
//! designated leader ("If we are allowed to designate a leader in the
//! input configuration…", §6.1), the whole counter-machine simulation —
//! program counter, timer streaks, share updates — is encoded in a
//! finite-state [`Protocol`] and runs on the ordinary simulation engine,
//! the exact analyzer included.
//!
//! The state space is finite by construction: leaders carry
//! `(pc, streak ≤ k)`, followers carry a share vector in `{0..M}^C` plus a
//! timer flag, so `|Q| ≤ |program|·k + 2·(M+1)^C`.
//!
//! Because the protocol is a real `δ`-table, `pp-analysis` can compute the
//! probability of a wrong zero test **exactly** from the configuration
//! Markov chain — and the tests check it against the Theorem 9 closed
//! form.

use pp_core::{CountConfig, DenseRuntime, Protocol, Simulation};
use pp_machines::counter::{CounterMachine, Instr};

/// One agent's state in the [`CounterProtocol`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CounterAgent {
    /// The designated leader: program counter plus the current run of
    /// consecutive timer encounters (only meaningful during a `DecJz`).
    Leader {
        /// Current instruction index.
        pc: u32,
        /// Consecutive timer encounters while waiting in `DecJz`.
        streak: u32,
    },
    /// A follower: counter shares (one per machine counter, each `≤ M`)
    /// and whether this agent carries the timer token.
    Follower {
        /// Share of each simulated counter.
        shares: Vec<u8>,
        /// Timer token.
        timer: bool,
    },
}

/// The §6.1 designated-leader counter machine as a population protocol.
///
/// The protocol's input alphabet is [`CounterAgent`] itself (the paper's
/// "designated leader in the input configuration"); use
/// [`initial_states`](CounterProtocol::initial_states) to build the
/// standard starting configuration.
#[derive(Debug, Clone)]
pub struct CounterProtocol {
    program: CounterMachine,
    k: u32,
    max_share: u8,
}

impl CounterProtocol {
    /// Wraps a counter-machine program with zero-test waiting parameter
    /// `k ≥ 1` and per-agent share cap `max_share ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `k < 1` or `max_share < 1`.
    pub fn new(program: CounterMachine, k: u32, max_share: u8) -> Self {
        assert!(k >= 1, "waiting parameter must be at least 1");
        assert!(max_share >= 1, "share cap must be at least 1");
        assert!(program.instructions().len() < 255, "program too long for the output map");
        Self { program, k, max_share }
    }

    /// The wrapped program.
    pub fn program(&self) -> &CounterMachine {
        &self.program
    }

    /// Builds the standard initial configuration for a population of `n`
    /// agents: one leader at `pc = 0`, one timer-carrying follower, and
    /// `n − 2` followers holding the initial counter values as shares
    /// (greedily packed).
    ///
    /// # Panics
    ///
    /// Panics if `n < 4`, the value arity mismatches the program, or a
    /// value exceeds the capacity `(n−2)·M`.
    pub fn initial_states(&self, n: usize, initial: &[u128]) -> Vec<(CounterAgent, u64)> {
        assert!(n >= 4, "population must have at least 4 agents");
        let nc = self.program.num_counters();
        assert_eq!(initial.len(), nc, "initial value arity mismatch");
        let holders = n - 2;
        let mut shares = vec![vec![0u8; nc]; holders];
        for (c, &v) in initial.iter().enumerate() {
            let cap = holders as u128 * u128::from(self.max_share);
            assert!(v <= cap, "initial value {v} exceeds capacity {cap}");
            let mut rest = v;
            for agent in shares.iter_mut() {
                if rest == 0 {
                    break;
                }
                let take = rest.min(u128::from(self.max_share)) as u8;
                agent[c] = take;
                rest -= u128::from(take);
            }
        }
        let mut out: Vec<(CounterAgent, u64)> =
            vec![(CounterAgent::Leader { pc: 0, streak: 0 }, 1)];
        out.push((CounterAgent::Follower { shares: vec![0; nc], timer: true }, 1));
        for s in shares {
            let agent = CounterAgent::Follower { shares: s, timer: false };
            match out.iter_mut().find(|(a, _)| *a == agent) {
                Some((_, c)) => *c += 1,
                None => out.push((agent, 1)),
            }
        }
        out
    }

    /// Builds a ready-to-run [`Simulation`].
    ///
    /// # Panics
    ///
    /// As [`initial_states`](Self::initial_states).
    pub fn simulation(&self, n: usize, initial: &[u128]) -> Simulation<Self> {
        Simulation::from_states(self.clone(), self.initial_states(n, initial))
    }

    /// Decodes the counter values (population share sums) from a
    /// configuration.
    pub fn decode_counters(
        &self,
        rt: &DenseRuntime<Self>,
        config: &CountConfig,
    ) -> Vec<u128> {
        let mut totals = vec![0u128; self.program.num_counters()];
        for (id, count) in config.support() {
            if let CounterAgent::Follower { shares, .. } = rt.state(id) {
                for (t, &s) in totals.iter_mut().zip(shares) {
                    *t += u128::from(s) * u128::from(count);
                }
            }
        }
        totals
    }

    /// The leader's program counter in a configuration, if a leader exists.
    pub fn leader_pc(&self, rt: &DenseRuntime<Self>, config: &CountConfig) -> Option<u32> {
        config.support().find_map(|(id, _)| match rt.state(id) {
            CounterAgent::Leader { pc, .. } => Some(*pc),
            _ => None,
        })
    }

    /// Whether the leader has halted in a configuration.
    pub fn halted(&self, rt: &DenseRuntime<Self>, config: &CountConfig) -> bool {
        self.leader_pc(rt, config)
            .is_some_and(|pc| matches!(self.program.instructions()[pc as usize], Instr::Halt))
    }

    /// The leader-side update for an encounter with follower `f`; returns
    /// the new `(leader, follower)` pair.
    fn encounter(
        &self,
        pc: u32,
        streak: u32,
        f: &CounterAgent,
    ) -> (CounterAgent, CounterAgent) {
        let CounterAgent::Follower { shares, timer } = f else {
            // Leader–leader encounters cannot arise from a single-leader
            // initial configuration; leave them inert for totality.
            return (CounterAgent::Leader { pc, streak }, f.clone());
        };
        let leader = |pc, streak| CounterAgent::Leader { pc, streak };
        match self.program.instructions()[pc as usize] {
            Instr::Halt => (leader(pc, streak), f.clone()),
            Instr::Inc { counter, next } => {
                if shares[counter] < self.max_share {
                    let mut s2 = shares.clone();
                    s2[counter] += 1;
                    (
                        leader(next as u32, 0),
                        CounterAgent::Follower { shares: s2, timer: *timer },
                    )
                } else {
                    // Full share: wait (no state change).
                    (leader(pc, streak), f.clone())
                }
            }
            Instr::DecJz { counter, nonzero, zero } => {
                if shares[counter] > 0 {
                    let mut s2 = shares.clone();
                    s2[counter] -= 1;
                    (
                        leader(nonzero as u32, 0),
                        CounterAgent::Follower { shares: s2, timer: *timer },
                    )
                } else if *timer {
                    if streak + 1 >= self.k {
                        (leader(zero as u32, 0), f.clone())
                    } else {
                        (leader(pc, streak + 1), f.clone())
                    }
                } else {
                    // Ordinary zero-share agent: streak broken.
                    (leader(pc, 0), f.clone())
                }
            }
        }
    }
}

impl Protocol for CounterProtocol {
    type State = CounterAgent;
    /// Initial states are supplied directly (designated-leader convention).
    type Input = CounterAgent;
    /// `0` for followers and non-halted leaders; `pc + 1` for a leader
    /// halted at instruction `pc` — so the population output becomes
    /// non-zero exactly when the program has halted, and distinct halt
    /// sites (e.g. the two branches of a zero test) are distinguishable.
    type Output = u8;

    fn input(&self, x: &CounterAgent) -> CounterAgent {
        x.clone()
    }

    fn output(&self, q: &CounterAgent) -> u8 {
        match q {
            CounterAgent::Leader { pc, .. } => {
                if matches!(self.program.instructions()[*pc as usize], Instr::Halt) {
                    (*pc + 1) as u8
                } else {
                    0
                }
            }
            CounterAgent::Follower { .. } => 0,
        }
    }

    fn delta(&self, p: &CounterAgent, q: &CounterAgent) -> (CounterAgent, CounterAgent) {
        match (p, q) {
            (CounterAgent::Leader { pc, streak }, f @ CounterAgent::Follower { .. }) => {
                self.encounter(*pc, *streak, f)
            }
            // The leader acts whichever role it plays in the encounter.
            (f @ CounterAgent::Follower { .. }, CounterAgent::Leader { pc, streak }) => {
                let (l2, f2) = self.encounter(*pc, *streak, f);
                (f2, l2)
            }
            _ => (p.clone(), q.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_core::seeded_rng;
    use pp_machines::programs;

    #[test]
    fn runs_addition_as_a_real_protocol() {
        // Waiting parameter k = 6: the per-zero-test error probability is
        // small enough (Theorem 9) that a premature jump is overwhelmingly
        // unlikely at n = 16, rather than relying on a lucky seed.
        let proto = CounterProtocol::new(programs::cm_add(), 3, 2);
        let mut sim = proto.simulation(16, &[3, 4]);
        let mut rng = seeded_rng(1);
        let mut halted = false;
        for _ in 0..5_000_000 {
            sim.step(&mut rng);
            if sim.output_histogram().iter().any(|&(o, c)| o != 0 && c > 0) {
                halted = true;
                break;
            }
        }
        assert!(halted, "leader must halt");
        let proto2 = CounterProtocol::new(programs::cm_add(), 3, 2);
        let counters = proto2.decode_counters(sim.runtime(), sim.config());
        // c0 = 3 + 4 (if no zero-test error fired early; with value 7 the
        // only zero branch is the final one, which is correct by then).
        assert_eq!(counters[0], 7);
        assert_eq!(counters[1], 0);
    }

    #[test]
    fn state_space_is_finite_and_small() {
        let proto = CounterProtocol::new(programs::cm_add(), 3, 1);
        let mut rt = DenseRuntime::new(proto.clone());
        let seeds: Vec<_> = proto
            .initial_states(6, &[2, 2])
            .into_iter()
            .map(|(s, _)| rt.intern(s))
            .collect();
        let n = rt.close_under_delta(&seeds).unwrap();
        // 3 instructions × 3 streaks + followers {0,1}²×{timer} — well
        // under 50 states.
        assert!(n < 50, "state space blew up: {n}");
    }

    #[test]
    fn exact_zero_test_error_matches_theorem9_closed_form() {
        // Program: single DecJz on counter 0 with distinct halt targets.
        //   0: DecJz c0 → 1 (nonzero) / 2 (zero)
        //   1: Halt    2: Halt
        let m = CounterMachine::new(
            vec![
                Instr::DecJz { counter: 0, nonzero: 1, zero: 2 },
                Instr::Halt,
                Instr::Halt,
            ],
            1,
        )
        .unwrap();
        for (n, k) in [(6usize, 1u32), (6, 2), (8, 2)] {
            let proto = CounterProtocol::new(m.clone(), k, 1);
            // Counter value 1: the correct branch is "nonzero" (pc = 1).
            let analysis = pp_analysis_markov(&proto, n, &[1]);
            // Exact probability that the leader commits to pc = 2 (wrong).
            let wrong = analysis;
            let urn = crate::urn::UrnProcess::new(n as u64 - 1, 1, k);
            let expect = urn.loss_probability();
            assert!(
                (wrong - expect).abs() < 1e-9,
                "n={n} k={k}: exact chain {wrong} vs closed form {expect}"
            );
        }
    }

    /// Exact probability (from the configuration Markov chain) that the
    /// single-DecJz program halts in the *zero* branch (pc = 2).
    fn pp_analysis_markov(proto: &CounterProtocol, n: usize, initial: &[u128]) -> f64 {
        use pp_analysis::MarkovAnalysis;
        let states = proto.initial_states(n, initial);
        let mut rt = DenseRuntime::new(proto.clone());
        let mut init = CountConfig::empty();
        for (s, c) in states {
            let id = rt.intern(s);
            init.add(id, c);
        }
        let graph = pp_analysis::ConfigGraph::explore_from(rt, init, 1_000_000);
        let m = MarkovAnalysis::from_graph(graph);
        // Output classes identify the halt site (output = pc + 1).
        let mut wrong = 0.0;
        let probs = m.commit_probabilities();
        for (ci, class) in m.classes().iter().enumerate() {
            // Output (pc + 1) identifies the halt site: 3 = zero branch.
            if class.iter().any(|&(o, c)| o == 3 && c > 0) {
                wrong += probs[ci];
            }
        }
        wrong
    }
}
