//! Dense interning of protocol states and memoization of the transition
//! function, so the simulation inner loop works on `u32` ids and array
//! lookups rather than hashing rich state values.

use crate::error::PopulationError;
use crate::fxhash::FxHashMap;
use crate::protocol::{CoinProtocol, Protocol};

/// Dense identifier of an interned protocol state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub u32);

impl StateId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Dense identifier of an interned output value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OutputId(pub u32);

impl OutputId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Default ceiling on the number of distinct states a protocol may intern.
///
/// The model requires `Q` to be finite; a protocol that keeps generating new
/// states (e.g. an unbounded counter) violates the model, and this bound
/// turns that bug into an error instead of memory exhaustion.
pub const DEFAULT_STATE_BOUND: usize = 1 << 22;

/// Most states the `δ`-memo keeps as a dense table. Up to this many
/// interned states the memo is a row-major `side × side` array (8 MiB at
/// the cap), so a lookup is one indexed load; past it the memo moves to a
/// hash map. Measured against a hash-only memo: a run that looks up most
/// pairs of 600 states is 1.8× faster and smaller dense, and a count-to-k
/// run that reaches 675 states but few pairs is 18% faster for 9 MiB more
/// peak memory (one side-1024 table, plus the copy while it doubles).
const DENSE_MEMO_STATES: usize = 1024;

/// Most states [`DenseRuntime::close_under_delta`] explores. A closure
/// evaluates `δ` on every ordered pair of the states it finds, and a
/// protocol such as count-to-k with a large `k` has a reachable state set
/// far beyond what any caller can use; past the cap the closure stops with
/// [`PopulationError::StateSpaceExceeded`].
pub const CLOSURE_STATE_CAP: usize = 256;

/// An ordered pair of states: the argument or the result of `δ`.
type StatePair = (StateId, StateId);

/// Marks a `(p, q)` the dense memo has not seen yet.
pub(crate) const UNSET: StatePair = (StateId(u32::MAX), StateId(u32::MAX));

/// The memo of `δ`: a dense row-major table while the runtime holds at most
/// [`DENSE_MEMO_STATES`] states, a hash map after. The table's side doubles
/// to stay at least the state count, so every pair of interned ids has a
/// slot, and slots not seen yet hold [`UNSET`].
#[derive(Debug, Clone, Default)]
struct DeltaMemo {
    /// Side of `dense` (entry `(p, q)` at `p * side + q`); 0 before the
    /// first state and once spilled to `sparse`.
    side: usize,
    dense: Vec<StatePair>,
    sparse: FxHashMap<StatePair, StatePair>,
}

impl DeltaMemo {
    #[inline]
    fn get(&self, p: StateId, q: StateId) -> Option<StatePair> {
        if self.side == 0 {
            return self.sparse.get(&(p, q)).copied();
        }
        let r = self.dense[p.index() * self.side + q.index()];
        (r != UNSET).then_some(r)
    }

    fn insert(&mut self, p: StateId, q: StateId, r: StatePair) {
        if self.side == 0 {
            self.sparse.insert((p, q), r);
        } else {
            self.dense[p.index() * self.side + q.index()] = r;
        }
    }

    /// Follows the runtime to `states` interned states: grows the table
    /// (keeping every entry) or, past the cap, moves it to the hash map for
    /// good.
    fn fit(&mut self, states: usize) {
        if states > DENSE_MEMO_STATES {
            if self.side > 0 {
                for (i, row) in self.dense.chunks(self.side).enumerate() {
                    for (j, &r) in row.iter().enumerate() {
                        if r != UNSET {
                            self.sparse.insert((StateId(i as u32), StateId(j as u32)), r);
                        }
                    }
                }
                self.dense = Vec::new();
                self.side = 0;
            }
        } else if states > self.side {
            let side = states.next_power_of_two().max(8);
            let mut dense = vec![UNSET; side * side];
            for (i, row) in self.dense.chunks(self.side.max(1)).enumerate() {
                dense[i * side..i * side + row.len()].copy_from_slice(row);
            }
            self.dense = dense;
            self.side = side;
        }
    }
}

/// Interns the states and outputs of a [`Protocol`] into dense ids and
/// memoizes its transition function.
///
/// States are discovered lazily: the set of interned states after any number
/// of operations is exactly the set of states the runtime has been shown
/// (via [`intern`](Self::intern)) plus the states produced by memoized
/// transitions.
///
/// # Example
///
/// ```
/// use pp_core::{DenseRuntime, FnProtocol};
///
/// let epidemic = FnProtocol::new(
///     |&b: &bool| b,
///     |&q: &bool| q,
///     |&p: &bool, &q: &bool| (p || q, p || q),
/// );
/// let mut rt = DenseRuntime::new(epidemic);
/// let healthy = rt.intern_input(&false);
/// let infected = rt.intern_input(&true);
/// let (a, b) = rt.transition(infected, healthy);
/// assert_eq!((a, b), (infected, infected));
/// ```
#[derive(Debug, Clone)]
pub struct DenseRuntime<P: Protocol> {
    protocol: P,
    states: Vec<P::State>,
    state_index: FxHashMap<P::State, StateId>,
    /// Output id of each interned state, parallel to `states`.
    state_output: Vec<OutputId>,
    outputs: Vec<P::Output>,
    output_index: FxHashMap<P::Output, OutputId>,
    /// Memoized transitions keyed by `(initiator, responder)`.
    transitions: DeltaMemo,
    /// Memoized coin-consuming transitions keyed by
    /// `(initiator, responder, coin code)`; see [`coin_code`].
    coined_transitions: FxHashMap<(StateId, StateId, u8), (StateId, StateId)>,
    state_bound: usize,
}

/// Dense encoding of an `(Option<bool>, Option<bool>)` coin pair into
/// `0..9`, used as the third key component of the coined-transition memo.
#[inline]
fn coin_code(coins: (Option<bool>, Option<bool>)) -> u8 {
    #[inline]
    fn enc(c: Option<bool>) -> u8 {
        match c {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        }
    }
    enc(coins.0) * 3 + enc(coins.1)
}

impl<P: Protocol> DenseRuntime<P> {
    /// Creates a runtime with the [`DEFAULT_STATE_BOUND`].
    pub fn new(protocol: P) -> Self {
        Self::with_state_bound(protocol, DEFAULT_STATE_BOUND)
    }

    /// Creates a runtime that will panic through
    /// [`PopulationError::StateSpaceExceeded`] if more than `bound` distinct
    /// states are ever interned.
    pub fn with_state_bound(protocol: P, bound: usize) -> Self {
        Self {
            protocol,
            states: Vec::new(),
            state_index: FxHashMap::default(),
            state_output: Vec::new(),
            outputs: Vec::new(),
            output_index: FxHashMap::default(),
            transitions: DeltaMemo::default(),
            coined_transitions: FxHashMap::default(),
            state_bound: bound,
        }
    }

    /// The wrapped protocol.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Number of distinct states interned so far.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Number of distinct output values interned so far.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Interns a state, returning its dense id.
    ///
    /// # Panics
    ///
    /// Panics if the number of distinct states exceeds the configured bound
    /// (the protocol is then not finite-state, violating the model).
    pub fn intern(&mut self, state: P::State) -> StateId {
        if let Some(&id) = self.state_index.get(&state) {
            return id;
        }
        assert!(
            self.states.len() < self.state_bound,
            "{}",
            PopulationError::StateSpaceExceeded { bound: self.state_bound }
        );
        let id = StateId(u32::try_from(self.states.len()).expect("more than u32::MAX states"));
        let out = self.intern_output(self.protocol.output(&state));
        self.states.push(state.clone());
        self.state_output.push(out);
        self.state_index.insert(state, id);
        self.transitions.fit(self.states.len());
        id
    }

    /// Interns an output value, returning its dense id.
    ///
    /// Useful for configuring output-keyed observers (e.g.
    /// `observe::ConvergenceProbe`) before a run.
    pub fn intern_output(&mut self, out: P::Output) -> OutputId {
        if let Some(&id) = self.output_index.get(&out) {
            return id;
        }
        let id = OutputId(u32::try_from(self.outputs.len()).expect("more than u32::MAX outputs"));
        self.outputs.push(out.clone());
        self.output_index.insert(out, id);
        id
    }

    /// Applies the input function `I` and interns the resulting state.
    pub fn intern_input(&mut self, x: &P::Input) -> StateId {
        let s = self.protocol.input(x);
        self.intern(s)
    }

    /// The state value behind an id.
    pub fn state(&self, id: StateId) -> &P::State {
        &self.states[id.index()]
    }

    /// The output id of a state.
    #[inline]
    pub fn output_of(&self, id: StateId) -> OutputId {
        self.state_output[id.index()]
    }

    /// The output value behind an output id.
    pub fn output_value(&self, id: OutputId) -> &P::Output {
        &self.outputs[id.index()]
    }

    /// Looks up (and memoizes) `δ(p, q)`. While the runtime holds at most
    /// 1024 states a memo hit is one load from a dense table; past that it
    /// is a hash lookup.
    #[inline]
    pub fn transition(&mut self, p: StateId, q: StateId) -> (StateId, StateId) {
        match self.transitions.get(p, q) {
            Some(r) => r,
            None => self.compute_transition(p, q),
        }
    }

    /// Evaluates `δ(p, q)`, interning the initiator's result first, and
    /// memoizes it.
    #[cold]
    fn compute_transition(&mut self, p: StateId, q: StateId) -> (StateId, StateId) {
        let (sp, sq) = self.protocol.delta(self.state(p), self.state(q));
        let rp = self.intern(sp);
        let rq = self.intern(sq);
        self.transitions.insert(p, q, (rp, rq));
        (rp, rq)
    }

    /// Looks up (and memoizes) the coin-consuming transition
    /// `δ(p, q, coins)` of a [`CoinProtocol`]. Memoization is keyed by the
    /// state pair *and* the coin pair (9 possible coin codes), so the hot
    /// path of [`step_coined`](crate::AgentSimulation::step_coined) stays a
    /// single hash lookup like the deterministic path.
    #[inline]
    pub fn transition_coined(
        &mut self,
        p: StateId,
        q: StateId,
        coins: (Option<bool>, Option<bool>),
    ) -> (StateId, StateId)
    where
        P: CoinProtocol,
    {
        let key = (p, q, coin_code(coins));
        if let Some(&r) = self.coined_transitions.get(&key) {
            return r;
        }
        let (sp, sq) = self.protocol.delta_coined(self.state(p), self.state(q), coins);
        let rp = self.intern(sp);
        let rq = self.intern(sq);
        self.coined_transitions.insert(key, (rp, rq));
        (rp, rq)
    }

    /// The `δ`-memo as a row-major table and its side (entry `(p, q)` at
    /// `p * side + q`, [`UNSET`] where `δ(p, q)` has not been looked up
    /// yet) while the runtime holds at most 1024 states; `None` past that.
    pub(crate) fn dense_memo(&self) -> Option<(&[StatePair], usize)> {
        let memo = &self.transitions;
        (memo.side > 0).then_some((memo.dense.as_slice(), memo.side))
    }

    /// Returns the memoized transition for `(p, q)` without computing it —
    /// `None` if this pair has never been passed to
    /// [`transition`](Self::transition).
    pub fn cached_transition(&self, p: StateId, q: StateId) -> Option<(StateId, StateId)> {
        self.transitions.get(p, q)
    }

    /// Eagerly explores the whole state space reachable from the given seed
    /// states by closing under `δ` on all ordered pairs, returning the total
    /// number of states.
    ///
    /// Useful before analysis passes that need the full (reachable) state
    /// set, and as a finiteness check for a protocol.
    ///
    /// # Errors
    ///
    /// [`PopulationError::StateSpaceExceeded`] as soon as the runtime holds
    /// more than [`CLOSURE_STATE_CAP`] states; the states interned so far
    /// stay interned.
    pub fn close_under_delta(&mut self, seeds: &[StateId]) -> Result<usize, PopulationError> {
        let mut frontier: Vec<StateId> = seeds.to_vec();
        let mut known = self.states.len();
        let step = |rt: &mut Self, a: StateId, b: StateId| {
            rt.transition(a, b);
            if rt.states.len() > CLOSURE_STATE_CAP {
                return Err(PopulationError::StateSpaceExceeded { bound: CLOSURE_STATE_CAP });
            }
            Ok(())
        };
        // Process pairs (old × new, new × old, new × new) until fixpoint.
        while !frontier.is_empty() {
            let snapshot: Vec<StateId> = (0..known as u32).map(StateId).collect();
            for &a in &snapshot {
                for &b in &frontier {
                    step(self, a, b)?;
                    step(self, b, a)?;
                }
            }
            for &a in &frontier {
                for &b in &frontier {
                    step(self, a, b)?;
                }
            }
            let new_known = self.states.len();
            frontier = (known as u32..new_known as u32).map(StateId).collect();
            known = new_known;
        }
        Ok(known)
    }

    /// All interned states (ids `0..state_count`).
    pub fn state_ids(&self) -> impl Iterator<Item = StateId> {
        (0..self.states.len() as u32).map(StateId)
    }

    /// The full transition table over the δ-closure of `seeds`: closes the
    /// state space under `δ` ([`close_under_delta`](Self::close_under_delta)),
    /// then returns every ordered pair `((p, q), δ(p, q))` over the closed
    /// space, in row-major `(p, q)` order.
    ///
    /// This is the registry hook for whole-protocol analyses — the
    /// mean-field drift derivation in `pp-analysis` compiles its vector
    /// field from exactly this table.
    ///
    /// # Errors
    ///
    /// As for [`close_under_delta`](Self::close_under_delta).
    pub fn transition_table(
        &mut self,
        seeds: &[StateId],
    ) -> Result<Vec<(StatePair, StatePair)>, PopulationError> {
        let count = self.close_under_delta(seeds)?;
        let mut table = Vec::with_capacity(count * count);
        for p in 0..count as u32 {
            for q in 0..count as u32 {
                let (p, q) = (StateId(p), StateId(q));
                table.push(((p, q), self.transition(p, q)));
            }
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::protocol::FnProtocol;

    fn mod3() -> impl Protocol<State = u8, Input = u8, Output = u8> {
        FnProtocol::new(
            |&x: &u8| x % 3,
            |&q: &u8| q,
            |&p: &u8, &q: &u8| ((p + q) % 3, 0),
        )
    }

    #[test]
    fn intern_is_idempotent() {
        let mut rt = DenseRuntime::new(mod3());
        let a = rt.intern(2);
        let b = rt.intern(2);
        assert_eq!(a, b);
        assert_eq!(rt.state_count(), 1);
    }

    #[test]
    fn transition_memoization_consistent() {
        let mut rt = DenseRuntime::new(mod3());
        let one = rt.intern(1);
        let two = rt.intern(2);
        let r1 = rt.transition(one, two);
        let r2 = rt.transition(one, two);
        assert_eq!(r1, r2);
        assert_eq!(*rt.state(r1.0), 0);
        assert_eq!(*rt.state(r1.1), 0);
    }

    #[test]
    fn outputs_are_interned_with_states() {
        let mut rt = DenseRuntime::new(mod3());
        let id = rt.intern(2);
        assert_eq!(*rt.output_value(rt.output_of(id)), 2);
    }

    #[test]
    fn close_under_delta_explores_reachable_space() {
        let mut rt = DenseRuntime::new(mod3());
        let seeds: Vec<StateId> = (0..3u8).map(|x| rt.intern_input(&x)).collect();
        let n = rt.close_under_delta(&seeds).unwrap();
        assert_eq!(n, 3); // states {0,1,2}
        // Closure contains every pair transition.
        for a in 0..3u32 {
            for b in 0..3u32 {
                let (p, q) = rt.transition(StateId(a), StateId(b));
                let _ = (p, q);
            }
        }
        assert_eq!(rt.state_count(), 3);
    }

    #[test]
    fn transition_table_covers_the_closure_in_row_major_order() {
        let mut rt = DenseRuntime::new(mod3());
        let seed = rt.intern_input(&1);
        let table = rt.transition_table(&[seed]).unwrap();
        let k = rt.state_count();
        assert_eq!(table.len(), k * k);
        for (i, &((p, q), result)) in table.iter().enumerate() {
            assert_eq!(p.index() * k + q.index(), i, "row-major order");
            assert_eq!(rt.cached_transition(p, q), Some(result));
        }
    }

    /// States `0..5000`, each transition landing on fresh-looking values,
    /// so the state space keeps growing as pairs are looked up.
    fn scatter() -> impl Protocol<State = u32, Input = u32, Output = bool> {
        FnProtocol::new(
            |&x: &u32| x,
            |&q: &u32| q % 2 == 0,
            |&p: &u32, &q: &u32| ((p * 7 + q + 1) % 5000, (p + 3 * q) % 5000),
        )
    }

    /// Drives `rt` through `calls` transitions on pseudo-random pairs of
    /// interned states, returning every `((p, q), δ(p, q))` seen.
    fn drive_scatter(
        rt: &mut DenseRuntime<impl Protocol<State = u32, Input = u32, Output = bool>>,
        calls: usize,
    ) -> Vec<((StateId, StateId), (StateId, StateId))> {
        use rand::Rng;
        let mut rng = crate::engine::seeded_rng(17);
        rt.intern_input(&1);
        (0..calls)
            .map(|_| {
                let k = rt.state_count() as u32;
                let (p, q) = (StateId(rng.gen_range(0..k)), StateId(rng.gen_range(0..k)));
                ((p, q), rt.transition(p, q))
            })
            .collect()
    }

    #[test]
    fn dense_memo_keeps_entries_across_doublings() {
        let mut rt = DenseRuntime::new(scatter());
        let mut seen = Vec::new();
        // Stop below the dense cap: every doubling of the table up to side
        // 512 happens on the way.
        while rt.state_count() < 500 {
            seen.extend(drive_scatter(&mut rt, 50));
        }
        assert!(rt.state_count() <= DENSE_MEMO_STATES);
        assert!(rt.transitions.side >= 512, "side {}", rt.transitions.side);
        let states = rt.state_count();
        for &((p, q), r) in &seen {
            assert_eq!(rt.cached_transition(p, q), Some(r));
            assert_eq!(rt.transition(p, q), r);
        }
        assert_eq!(rt.state_count(), states, "a memo hit interns nothing");
    }

    #[test]
    fn memo_past_the_dense_cap_matches_a_hash_only_runtime() {
        // The reference interns and memoizes exactly as the runtime did
        // before the dense table: a hash map per direction.
        fn intern(s: u32, index: &mut HashMap<u32, StateId>, values: &mut Vec<u32>) -> StateId {
            *index.entry(s).or_insert_with(|| {
                values.push(s);
                StateId(values.len() as u32 - 1)
            })
        }
        let proto = scatter();
        let mut index: HashMap<u32, StateId> = HashMap::new();
        let mut values: Vec<u32> = Vec::new();
        let mut memo: HashMap<(StateId, StateId), (StateId, StateId)> = HashMap::new();
        intern(1, &mut index, &mut values);

        let mut rt = DenseRuntime::new(scatter());
        let seen = drive_scatter(&mut rt, 40_000);
        assert!(rt.state_count() > DENSE_MEMO_STATES, "{} states", rt.state_count());
        assert_eq!(rt.transitions.side, 0, "the memo spilled to the hash map");
        for &((p, q), r) in &seen {
            let want = *memo.entry((p, q)).or_insert_with(|| {
                let (sp, sq) = proto.delta(&values[p.index()], &values[q.index()]);
                let rp = intern(sp, &mut index, &mut values);
                (rp, intern(sq, &mut index, &mut values))
            });
            assert_eq!(r, want, "state ids for δ({p:?}, {q:?})");
            assert_eq!(rt.cached_transition(p, q), Some(r));
        }
        assert_eq!(values.len(), rt.state_count());
        for (i, v) in values.iter().enumerate() {
            assert_eq!(rt.state(StateId(i as u32)), v);
        }
    }

    #[test]
    fn closure_stops_at_the_cap() {
        let mut rt = DenseRuntime::new(scatter());
        let seed = rt.intern_input(&1);
        assert_eq!(
            rt.close_under_delta(&[seed]),
            Err(PopulationError::StateSpaceExceeded { bound: CLOSURE_STATE_CAP })
        );
        // One transition interns at most two states.
        assert!((CLOSURE_STATE_CAP + 1..=CLOSURE_STATE_CAP + 2).contains(&rt.state_count()));
        assert!(rt.transition_table(&[seed]).is_err());
    }

    #[test]
    #[should_panic(expected = "distinct states")]
    fn state_bound_enforced() {
        // An unbounded counter protocol violates finiteness.
        let unbounded = FnProtocol::new(
            |&x: &u64| x,
            |&q: &u64| q,
            |&p: &u64, &q: &u64| (p + q + 1, q),
        );
        let mut rt = DenseRuntime::with_state_bound(unbounded, 8);
        let mut s = rt.intern(0);
        let z = rt.intern(0);
        for _ in 0..100 {
            s = rt.transition(s, z).0;
        }
    }
}
