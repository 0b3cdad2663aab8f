//! One-way communication (§8): interactions that change only the
//! responder.
//!
//! The paper's discussion section singles out the restriction where
//! `δ` keeps the initiator's state fixed — the responder merely *observes*
//! the initiator ("immediate observation" in the follow-up literature) —
//! and notes that threshold predicates ("at least k ones") remain
//! computable while the restriction "appears to restrict the class of
//! stably computable predicates severely".
//!
//! This module provides:
//!
//! * [`ObservationProtocol`], a builder for protocols whose transitions are
//!   structurally one-way: the implementor only supplies the *responder's*
//!   update `observe(observed, responder) → responder'`;
//! * [`one_way_count_threshold`], the one-way count-to-`k` protocol: agents
//!   with input 1 climb levels `1 → 2 → … → k` by observing another agent
//!   at *their own* level (two distinct agents are needed per level, so the
//!   maximum level reached is exactly `min(k, #ones)`), and an alert flag
//!   spreads — also one-way — once level `k` appears;
//! * [`is_one_way`], a checker that a protocol's explored transition table
//!   never changes the initiator.

use pp_core::registry::DenseRuntime;
use pp_core::{Protocol, StateId};

/// A protocol defined purely by an observation rule: the initiator is
/// never changed.
///
/// # Example
///
/// One-way epidemic: observers of an infected agent become infected.
///
/// ```
/// use pp_core::prelude::*;
/// use pp_protocols::oneway::ObservationProtocol;
///
/// let epidemic = ObservationProtocol::new(
///     |&b: &bool| b,
///     |&q: &bool| q,
///     |observed: &bool, me: &bool| *me || *observed,
/// );
/// let mut sim = Simulation::from_counts(epidemic, [(true, 1), (false, 40)]);
/// let mut rng = seeded_rng(3);
/// assert!(sim.measure_stabilization(&true, 200_000, &mut rng).converged());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ObservationProtocol<S, X, Y, FI, FO, FB> {
    input_fn: FI,
    output_fn: FO,
    observe_fn: FB,
    #[allow(clippy::type_complexity)]
    _marker: std::marker::PhantomData<fn(&X, &S) -> (S, Y)>,
}

impl<S, X, Y, FI, FO, FB> ObservationProtocol<S, X, Y, FI, FO, FB>
where
    FI: Fn(&X) -> S,
    FO: Fn(&S) -> Y,
    FB: Fn(&S, &S) -> S,
{
    /// Builds a one-way protocol from an input map, an output map, and the
    /// responder's observation rule `observe(observed_state, my_state)`.
    pub fn new(input_fn: FI, output_fn: FO, observe_fn: FB) -> Self {
        Self { input_fn, output_fn, observe_fn, _marker: std::marker::PhantomData }
    }
}

impl<S, X, Y, FI, FO, FB> Protocol for ObservationProtocol<S, X, Y, FI, FO, FB>
where
    S: Clone + Eq + std::hash::Hash + std::fmt::Debug,
    X: Clone + Eq + std::hash::Hash + std::fmt::Debug,
    Y: Clone + Eq + std::hash::Hash + std::fmt::Debug,
    FI: Fn(&X) -> S,
    FO: Fn(&S) -> Y,
    FB: Fn(&S, &S) -> S,
{
    type State = S;
    type Input = X;
    type Output = Y;

    fn input(&self, x: &X) -> S {
        (self.input_fn)(x)
    }

    fn output(&self, q: &S) -> Y {
        (self.output_fn)(q)
    }

    /// The initiator is observed, the responder updates.
    fn delta(&self, p: &S, q: &S) -> (S, S) {
        (p.clone(), (self.observe_fn)(p, q))
    }
}

/// State of the one-way count-to-`k` protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LevelState {
    /// Climbing level: `0` for input-0 agents; input-1 agents start at 1.
    pub level: u32,
    /// Whether this agent has (transitively) observed level `k`.
    pub alert: bool,
}

/// The one-way count-to-`k` protocol (§8): stably computes "at least `k`
/// agents have input 1" with transitions that never change the initiator.
///
/// Correctness sketch: a level-`i` observer of a level-`i` agent (`i ≥ 1`)
/// climbs to `i + 1`, so producing level `i + 1` requires two *distinct*
/// agents at level `i`; by induction the maximum level reached equals
/// `min(k, #ones)`. An agent observing level `≥ k` (or an alerted agent)
/// raises its alert flag, which spreads one-way to everyone.
///
/// # Panics
///
/// Panics if `k == 0`.
///
/// # Example
///
/// ```
/// use pp_core::prelude::*;
/// use pp_protocols::oneway::one_way_count_threshold;
///
/// let mut sim = Simulation::from_counts(
///     one_way_count_threshold(3),
///     [(true, 3), (false, 10)],
/// );
/// let mut rng = seeded_rng(5);
/// assert!(sim.measure_stabilization(&true, 500_000, &mut rng).converged());
/// ```
pub fn one_way_count_threshold(
    k: u32,
) -> impl Protocol<State = LevelState, Input = bool, Output = bool> + Clone {
    assert!(k >= 1, "threshold k must be at least 1");
    ObservationProtocol::new(
        move |&one: &bool| LevelState { level: u32::from(one), alert: one && k == 1 },
        |s: &LevelState| s.alert,
        move |observed: &LevelState, me: &LevelState| {
            let mut next = *me;
            if observed.alert || observed.level >= k {
                next.alert = true;
            }
            if me.level >= 1 && me.level < k && observed.level == me.level {
                next.level = me.level + 1;
                if next.level >= k {
                    next.alert = true;
                }
            }
            next
        },
    )
}

/// Checks that every transition in the (explored) table leaves the
/// initiator unchanged. Explores the state space reachable from the given
/// inputs by closing under `δ`.
///
/// # Panics
///
/// Panics if the closure passes
/// [`CLOSURE_STATE_CAP`](pp_core::registry::CLOSURE_STATE_CAP) states.
pub fn is_one_way<P: Protocol>(protocol: P, inputs: &[P::Input]) -> bool {
    let mut rt = DenseRuntime::new(protocol);
    let seeds: Vec<StateId> = inputs.iter().map(|x| rt.intern_input(x)).collect();
    let n = rt.close_under_delta(&seeds).unwrap_or_else(|e| panic!("{e}"));
    for a in 0..n as u32 {
        for b in 0..n as u32 {
            let (p2, _) = rt.transition(StateId(a), StateId(b));
            if p2 != StateId(a) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_core::{seeded_rng, Simulation};

    #[test]
    fn observation_protocols_are_one_way() {
        assert!(is_one_way(one_way_count_threshold(3), &[true, false]));
        assert!(is_one_way(one_way_count_threshold(1), &[true, false]));
        // The ordinary two-way count-to-5 is not one-way.
        assert!(!is_one_way(crate::CountThreshold::new(5), &[true, false]));
    }

    #[test]
    fn climbing_requires_two_distinct_agents_per_level() {
        let p = one_way_count_threshold(3);
        let l1 = LevelState { level: 1, alert: false };
        let l2 = LevelState { level: 2, alert: false };
        // Equal levels: the observer climbs.
        let (a, b) = p.delta(&l1, &l1);
        assert_eq!(a, l1, "initiator unchanged");
        assert_eq!(b.level, 2);
        // Unequal levels: no climb.
        let (_, b) = p.delta(&l2, &l1);
        assert_eq!(b.level, 1);
        let (_, b) = p.delta(&l1, &l2);
        assert_eq!(b.level, 2);
    }

    #[test]
    fn alert_raises_at_level_k_and_spreads() {
        let p = one_way_count_threshold(2);
        let l1 = LevelState { level: 1, alert: false };
        let (_, climbed) = p.delta(&l1, &l1);
        assert_eq!(climbed.level, 2);
        assert!(climbed.alert, "reaching level k raises the alert");
        let zero = LevelState { level: 0, alert: false };
        let (_, observer) = p.delta(&climbed, &zero);
        assert!(observer.alert, "alert spreads by observation");
    }

    #[test]
    fn stabilizes_to_correct_verdict_simulated() {
        let mut rng = seeded_rng(11);
        for (ones, k, expected) in
            [(3u64, 3u32, true), (2, 3, false), (5, 3, true), (0, 1, false), (1, 1, true)]
        {
            let mut sim = Simulation::from_counts(
                one_way_count_threshold(k),
                [(true, ones), (false, 12 - ones)],
            );
            let rep = sim.measure_stabilization(&expected, 400_000, &mut rng);
            assert!(rep.converged(), "ones={ones} k={k} expected={expected}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(20))]
        #[test]
        fn prop_one_way_threshold_matches_ground_truth(
            ones in 0u64..7, zeros in 0u64..7, k in 1u32..5, seed in 0u64..3,
        ) {
            proptest::prop_assume!(ones + zeros >= 2);
            let expected = ones >= u64::from(k);
            let mut sim = Simulation::from_counts(
                one_way_count_threshold(k),
                [(true, ones), (false, zeros)],
            );
            let mut rng = seeded_rng(seed);
            let rep = sim.measure_stabilization(&expected, 300_000, &mut rng);
            proptest::prop_assert!(rep.converged(), "ones={} k={}", ones, k);
        }
    }
}
