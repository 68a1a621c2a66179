//! Dense, enumerated Mealy machines.

use std::collections::VecDeque;
use std::fmt;

/// A state of an [`ExplicitMealy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub u32);

/// An input symbol of an [`ExplicitMealy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InputSym(pub u32);

/// An output symbol of an [`ExplicitMealy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OutputSym(pub u32);

impl StateId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl InputSym {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl OutputSym {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One transition: from `state` on `input`, emit `output` and go to `next`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Transition {
    /// Source state.
    pub state: StateId,
    /// Input symbol.
    pub input: InputSym,
    /// Destination state.
    pub next: StateId,
    /// Emitted output symbol.
    pub output: OutputSym,
}

/// Errors from [`MealyBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A `(state, input)` pair was given two different transitions.
    Nondeterministic {
        /// The state at which two transitions collide.
        state: StateId,
        /// The input on which they collide.
        input: InputSym,
    },
    /// The designated reset state does not exist.
    BadReset(StateId),
    /// The machine has no states.
    Empty,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Nondeterministic { state, input } => write!(
                f,
                "two transitions defined for state {} on input {}",
                state.0, input.0
            ),
            BuildError::BadReset(s) => write!(f, "reset state {} does not exist", s.0),
            BuildError::Empty => write!(f, "machine has no states"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Incremental constructor for [`ExplicitMealy`]; see the crate-level
/// example.
#[derive(Debug, Clone, Default)]
pub struct MealyBuilder {
    state_labels: Vec<String>,
    input_labels: Vec<String>,
    output_labels: Vec<String>,
    transitions: Vec<Transition>,
}

impl MealyBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a state with a label, returning its id.
    pub fn add_state(&mut self, label: impl Into<String>) -> StateId {
        self.state_labels.push(label.into());
        StateId(self.state_labels.len() as u32 - 1)
    }

    /// Adds an input symbol with a label.
    pub fn add_input(&mut self, label: impl Into<String>) -> InputSym {
        self.input_labels.push(label.into());
        InputSym(self.input_labels.len() as u32 - 1)
    }

    /// Adds an output symbol with a label.
    pub fn add_output(&mut self, label: impl Into<String>) -> OutputSym {
        self.output_labels.push(label.into());
        OutputSym(self.output_labels.len() as u32 - 1)
    }

    /// Adds a transition.
    pub fn add_transition(
        &mut self,
        state: StateId,
        input: InputSym,
        next: StateId,
        output: OutputSym,
    ) -> &mut Self {
        self.transitions.push(Transition {
            state,
            input,
            next,
            output,
        });
        self
    }

    /// Finalizes the machine with the given reset state.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if the machine is empty, the reset state is
    /// out of range, or a `(state, input)` pair is defined twice with
    /// different destinations or outputs.
    pub fn build(&self, reset: StateId) -> Result<ExplicitMealy, BuildError> {
        let ns = self.state_labels.len();
        let ni = self.input_labels.len();
        if ns == 0 {
            return Err(BuildError::Empty);
        }
        if reset.index() >= ns {
            return Err(BuildError::BadReset(reset));
        }
        let mut table: Vec<Option<(StateId, OutputSym)>> = vec![None; ns * ni];
        for t in &self.transitions {
            let idx = t.state.index() * ni + t.input.index();
            match table[idx] {
                None => table[idx] = Some((t.next, t.output)),
                Some(existing) if existing == (t.next, t.output) => {}
                Some(_) => {
                    return Err(BuildError::Nondeterministic {
                        state: t.state,
                        input: t.input,
                    })
                }
            }
        }
        Ok(ExplicitMealy {
            reset,
            table,
            state_labels: self.state_labels.clone(),
            input_labels: self.input_labels.clone(),
            output_labels: self.output_labels.clone(),
        })
    }
}

/// A deterministic (possibly partial) Mealy machine with enumerated
/// states, inputs and outputs.
///
/// The transition function is stored densely; `(state, input)` pairs with
/// no transition are *undefined* (a partial machine). Most algorithms in
/// the workspace require completeness over the *valid* input alphabet —
/// see [`ExplicitMealy::is_complete`].
#[derive(Clone, PartialEq, Eq)]
pub struct ExplicitMealy {
    reset: StateId,
    /// Dense table: `table[s * num_inputs + i]`.
    table: Vec<Option<(StateId, OutputSym)>>,
    state_labels: Vec<String>,
    input_labels: Vec<String>,
    output_labels: Vec<String>,
}

impl ExplicitMealy {
    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.state_labels.len()
    }

    /// Number of input symbols.
    pub fn num_inputs(&self) -> usize {
        self.input_labels.len()
    }

    /// Number of output symbols.
    pub fn num_outputs(&self) -> usize {
        self.output_labels.len()
    }

    /// Number of defined transitions.
    pub fn num_transitions(&self) -> usize {
        self.table.iter().filter(|t| t.is_some()).count()
    }

    /// The reset state.
    pub fn reset(&self) -> StateId {
        self.reset
    }

    /// The transition from `state` on `input`, if defined.
    pub fn step(&self, state: StateId, input: InputSym) -> Option<(StateId, OutputSym)> {
        self.table[state.index() * self.num_inputs() + input.index()]
    }

    /// All state ids.
    pub fn states(&self) -> impl Iterator<Item = StateId> {
        (0..self.num_states() as u32).map(StateId)
    }

    /// All input symbols.
    pub fn inputs(&self) -> impl Iterator<Item = InputSym> {
        (0..self.num_inputs() as u32).map(InputSym)
    }

    /// All defined transitions, in `(state, input)` order.
    pub fn transitions(&self) -> impl Iterator<Item = Transition> + '_ {
        let ni = self.num_inputs();
        self.table.iter().enumerate().filter_map(move |(idx, t)| {
            t.map(|(next, output)| Transition {
                state: StateId((idx / ni) as u32),
                input: InputSym((idx % ni) as u32),
                next,
                output,
            })
        })
    }

    /// Label of a state.
    pub fn state_label(&self, s: StateId) -> &str {
        &self.state_labels[s.index()]
    }

    /// Label of an input symbol.
    pub fn input_label(&self, i: InputSym) -> &str {
        &self.input_labels[i.index()]
    }

    /// Label of an output symbol.
    pub fn output_label(&self, o: OutputSym) -> &str {
        &self.output_labels[o.index()]
    }

    /// State id with the given label, if any.
    pub fn state_by_label(&self, label: &str) -> Option<StateId> {
        self.state_labels
            .iter()
            .position(|l| l == label)
            .map(|i| StateId(i as u32))
    }

    /// Input symbol with the given label, if any.
    pub fn input_by_label(&self, label: &str) -> Option<InputSym> {
        self.input_labels
            .iter()
            .position(|l| l == label)
            .map(|i| InputSym(i as u32))
    }

    /// `true` if every `(state, input)` pair has a transition.
    pub fn is_complete(&self) -> bool {
        self.table.iter().all(|t| t.is_some())
    }

    /// `true` if every `(reachable state, input)` pair has a transition.
    pub fn is_complete_on_reachable(&self) -> bool {
        let ni = self.num_inputs();
        self.reachable_states()
            .into_iter()
            .all(|s| (0..ni).all(|i| self.table[s.index() * ni + i].is_some()))
    }

    /// States reachable from reset, in BFS order.
    pub fn reachable_states(&self) -> Vec<StateId> {
        let mut seen = vec![false; self.num_states()];
        let mut order = Vec::new();
        let mut queue = VecDeque::new();
        seen[self.reset.index()] = true;
        queue.push_back(self.reset);
        while let Some(s) = queue.pop_front() {
            order.push(s);
            for i in self.inputs() {
                if let Some((n, _)) = self.step(s, i) {
                    if !seen[n.index()] {
                        seen[n.index()] = true;
                        queue.push_back(n);
                    }
                }
            }
        }
        order
    }

    /// `true` if the sub-graph induced by the reachable states is strongly
    /// connected (a prerequisite for a single-sequence transition tour).
    pub fn is_strongly_connected(&self) -> bool {
        let reach = self.reachable_states();
        if reach.is_empty() {
            return false;
        }
        // Reachable from reset by construction; check co-reachability by
        // BFS on the reversed graph restricted to `reach`.
        let in_reach = {
            let mut v = vec![false; self.num_states()];
            for &s in &reach {
                v[s.index()] = true;
            }
            v
        };
        let mut rev: Vec<Vec<StateId>> = vec![Vec::new(); self.num_states()];
        for t in self.transitions() {
            if in_reach[t.state.index()] && in_reach[t.next.index()] {
                rev[t.next.index()].push(t.state);
            }
        }
        let mut seen = vec![false; self.num_states()];
        let mut queue = VecDeque::new();
        seen[self.reset.index()] = true;
        queue.push_back(self.reset);
        let mut count = 1;
        while let Some(s) = queue.pop_front() {
            for &p in &rev[s.index()] {
                if !seen[p.index()] {
                    seen[p.index()] = true;
                    count += 1;
                    queue.push_back(p);
                }
            }
        }
        count == reach.len()
    }

    /// Runs the machine from `from` over an input sequence, returning the
    /// visited states (`len + 1` entries, starting with `from`) and the
    /// emitted outputs (`len` entries). Stops early at an undefined
    /// transition.
    pub fn run(&self, from: StateId, inputs: &[InputSym]) -> (Vec<StateId>, Vec<OutputSym>) {
        let mut states = vec![from];
        let mut outputs = Vec::with_capacity(inputs.len());
        let mut cur = from;
        for &i in inputs {
            match self.step(cur, i) {
                Some((n, o)) => {
                    states.push(n);
                    outputs.push(o);
                    cur = n;
                }
                None => break,
            }
        }
        (states, outputs)
    }

    /// Output sequence from reset for an input sequence (panics-free; the
    /// sequence is truncated at the first undefined transition).
    pub fn output_trace(&self, inputs: &[InputSym]) -> Vec<OutputSym> {
        self.run(self.reset, inputs).1
    }

    /// Returns a copy with one transition redirected — the mutation used
    /// to inject *transfer errors* (Definition 3 of the paper).
    ///
    /// # Panics
    ///
    /// Panics if the transition `(state, input)` is undefined.
    pub fn with_redirected_transition(
        &self,
        state: StateId,
        input: InputSym,
        new_next: StateId,
    ) -> ExplicitMealy {
        let mut m = self.clone();
        let ni = m.num_inputs();
        let idx = state.index() * ni + input.index();
        let (_, out) = m.table[idx].expect("transition must be defined");
        m.table[idx] = Some((new_next, out));
        m
    }

    /// Returns a copy with one transition's output changed — the mutation
    /// used to inject *output errors* (Definition 1 of the paper).
    ///
    /// # Panics
    ///
    /// Panics if the transition `(state, input)` is undefined.
    pub fn with_changed_output(
        &self,
        state: StateId,
        input: InputSym,
        new_output: OutputSym,
    ) -> ExplicitMealy {
        let mut m = self.clone();
        let ni = m.num_inputs();
        let idx = state.index() * ni + input.index();
        let (next, _) = m.table[idx].expect("transition must be defined");
        m.table[idx] = Some((next, new_output));
        m
    }

    /// Returns a zero-clone view of this machine with the single
    /// transition `(state, input)` replaced by `(next, output)`.
    ///
    /// Unlike [`with_redirected_transition`](Self::with_redirected_transition)
    /// and [`with_changed_output`](Self::with_changed_output), which copy
    /// the whole dense table (and every label vector), the returned
    /// [`PatchedMealy`] borrows the base machine and overlays exactly one
    /// cell — the natural representation of a *single* injected error, and
    /// the reason a differential fault simulator can step thousands of
    /// faulty machines without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the transition `(state, input)` is undefined, matching
    /// the contract of the cloning mutators.
    pub fn patched(
        &self,
        state: StateId,
        input: InputSym,
        next: StateId,
        output: OutputSym,
    ) -> PatchedMealy<'_> {
        let cell = state.index() * self.num_inputs() + input.index();
        assert!(
            self.table[cell].is_some(),
            "transition must be defined to be patched"
        );
        PatchedMealy {
            base: self,
            cell,
            repl: (next, output),
        }
    }

    /// Renders the machine in Graphviz DOT format (reachable part only).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("digraph mealy {\n  rankdir=LR;\n");
        let reach = self.reachable_states();
        let in_reach = {
            let mut v = vec![false; self.num_states()];
            for &st in &reach {
                v[st.index()] = true;
            }
            v
        };
        let _ = writeln!(s, "  init [shape=point];");
        let _ = writeln!(s, "  init -> s{};", self.reset.0);
        for &st in &reach {
            let _ = writeln!(s, "  s{} [label=\"{}\"];", st.0, self.state_label(st));
        }
        for t in self.transitions() {
            if in_reach[t.state.index()] {
                let _ = writeln!(
                    s,
                    "  s{} -> s{} [label=\"{}/{}\"];",
                    t.state.0,
                    t.next.0,
                    self.input_label(t.input),
                    self.output_label(t.output)
                );
            }
        }
        s.push_str("}\n");
        s
    }
}

/// A borrowed [`ExplicitMealy`] with exactly one transition overlaid —
/// the zero-clone representation of a single-fault mutant.
///
/// Construct with [`ExplicitMealy::patched`]; step with
/// [`step_patched`](Self::step_patched). The overlay is a `Copy` value of
/// three words, so campaigns can materialise one per fault with no heap
/// traffic where the cloning mutators would copy the full transition
/// table per fault.
///
/// ```
/// use simcov_fsm::{MealyBuilder, StateId};
///
/// let mut b = MealyBuilder::new();
/// let s0 = b.add_state("s0");
/// let s1 = b.add_state("s1");
/// let i = b.add_input("i");
/// let o = b.add_output("o");
/// b.add_transition(s0, i, s1, o);
/// b.add_transition(s1, i, s0, o);
/// let m = b.build(s0).unwrap();
/// let patched = m.patched(s0, i, s0, o); // redirect s0 -i-> s0
/// assert_eq!(patched.step_patched(s0, i), Some((s0, o)));
/// assert_eq!(patched.step_patched(s1, i), m.step(s1, i));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PatchedMealy<'a> {
    base: &'a ExplicitMealy,
    /// Dense-table cell index of the overlaid transition.
    cell: usize,
    /// Replacement `(next, output)` for that cell.
    repl: (StateId, OutputSym),
}

impl PatchedMealy<'_> {
    /// The underlying (golden) machine.
    pub fn base(&self) -> &ExplicitMealy {
        self.base
    }

    /// The transition from `state` on `input` under the overlay: the
    /// replacement pair on the patched cell, the base machine's entry
    /// everywhere else. Branch-light by design — one integer compare on
    /// the hot path of differential fault simulation.
    #[inline]
    pub fn step_patched(&self, state: StateId, input: InputSym) -> Option<(StateId, OutputSym)> {
        let cell = state.index() * self.base.num_inputs() + input.index();
        if cell == self.cell {
            Some(self.repl)
        } else {
            self.base.table[cell]
        }
    }

    /// Runs the patched machine from `from`, mirroring
    /// [`ExplicitMealy::run`] (truncates at an undefined transition).
    pub fn run(&self, from: StateId, inputs: &[InputSym]) -> (Vec<StateId>, Vec<OutputSym>) {
        let mut states = vec![from];
        let mut outputs = Vec::with_capacity(inputs.len());
        let mut cur = from;
        for &i in inputs {
            match self.step_patched(cur, i) {
                Some((n, o)) => {
                    states.push(n);
                    outputs.push(o);
                    cur = n;
                }
                None => break,
            }
        }
        (states, outputs)
    }
}

impl fmt::Debug for ExplicitMealy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ExplicitMealy({} states, {} inputs, {} outputs, {} transitions)",
            self.num_states(),
            self.num_inputs(),
            self.num_outputs(),
            self.num_transitions()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 3-state modulo counter with an `inc`/`hold` alphabet.
    fn mod3() -> ExplicitMealy {
        let mut b = MealyBuilder::new();
        let states: Vec<StateId> = (0..3).map(|i| b.add_state(format!("s{i}"))).collect();
        let inc = b.add_input("inc");
        let hold = b.add_input("hold");
        let low = b.add_output("low");
        let high = b.add_output("high");
        for i in 0..3usize {
            let o = if i == 2 { high } else { low };
            b.add_transition(states[i], inc, states[(i + 1) % 3], o);
            b.add_transition(states[i], hold, states[i], low);
        }
        b.build(states[0]).unwrap()
    }

    #[test]
    fn build_and_query() {
        let m = mod3();
        assert_eq!(m.num_states(), 3);
        assert_eq!(m.num_inputs(), 2);
        assert_eq!(m.num_transitions(), 6);
        assert!(m.is_complete());
        assert!(m.is_complete_on_reachable());
        assert_eq!(m.state_label(StateId(1)), "s1");
        assert_eq!(m.state_by_label("s2"), Some(StateId(2)));
        assert_eq!(m.input_by_label("hold"), Some(InputSym(1)));
        assert_eq!(m.input_by_label("nope"), None);
    }

    #[test]
    fn duplicate_identical_transition_ok_conflicting_rejected() {
        let mut b = MealyBuilder::new();
        let s = b.add_state("s");
        let i = b.add_input("i");
        let o = b.add_output("o");
        let o2 = b.add_output("o2");
        b.add_transition(s, i, s, o);
        b.add_transition(s, i, s, o);
        assert!(b.build(s).is_ok());
        b.add_transition(s, i, s, o2);
        assert_eq!(
            b.build(s).unwrap_err(),
            BuildError::Nondeterministic { state: s, input: i }
        );
    }

    #[test]
    fn build_errors() {
        let b = MealyBuilder::new();
        assert_eq!(b.build(StateId(0)).unwrap_err(), BuildError::Empty);
        let mut b = MealyBuilder::new();
        let _ = b.add_state("s");
        assert_eq!(
            b.build(StateId(5)).unwrap_err(),
            BuildError::BadReset(StateId(5))
        );
    }

    #[test]
    fn run_and_trace() {
        let m = mod3();
        let inc = m.input_by_label("inc").unwrap();
        let hold = m.input_by_label("hold").unwrap();
        let (states, outs) = m.run(m.reset(), &[inc, inc, inc, hold]);
        assert_eq!(states.len(), 5);
        assert_eq!(states[3], m.reset()); // wrapped around
        let labels: Vec<&str> = outs.iter().map(|&o| m.output_label(o)).collect();
        assert_eq!(labels, vec!["low", "low", "high", "low"]);
    }

    #[test]
    fn reachability_and_connectivity() {
        let m = mod3();
        assert_eq!(m.reachable_states().len(), 3);
        assert!(m.is_strongly_connected());
        // Add an unreachable state: still strongly connected on reachable.
        let mut b = MealyBuilder::new();
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let dead = b.add_state("dead");
        let i = b.add_input("i");
        let o = b.add_output("o");
        b.add_transition(s0, i, s1, o);
        b.add_transition(s1, i, s0, o);
        b.add_transition(dead, i, s0, o);
        let m = b.build(s0).unwrap();
        assert_eq!(m.reachable_states().len(), 2);
        assert!(m.is_strongly_connected());
    }

    #[test]
    fn not_strongly_connected_detected() {
        let mut b = MealyBuilder::new();
        let s0 = b.add_state("s0");
        let sink = b.add_state("sink");
        let i = b.add_input("i");
        let o = b.add_output("o");
        b.add_transition(s0, i, sink, o);
        b.add_transition(sink, i, sink, o);
        let m = b.build(s0).unwrap();
        assert!(!m.is_strongly_connected());
    }

    #[test]
    fn mutations() {
        let m = mod3();
        let inc = m.input_by_label("inc").unwrap();
        let s0 = m.reset();
        let bad = m.with_redirected_transition(s0, inc, s0);
        assert_eq!(bad.step(s0, inc).unwrap().0, s0);
        // Output preserved by redirection.
        assert_eq!(bad.step(s0, inc).unwrap().1, m.step(s0, inc).unwrap().1);
        let high = OutputSym(1);
        let bad2 = m.with_changed_output(s0, inc, high);
        assert_eq!(bad2.step(s0, inc).unwrap().1, high);
        assert_eq!(bad2.step(s0, inc).unwrap().0, m.step(s0, inc).unwrap().0);
    }

    #[test]
    fn patched_agrees_with_cloning_mutators_on_every_cell() {
        let m = mod3();
        let inc = m.input_by_label("inc").unwrap();
        let hold = m.input_by_label("hold").unwrap();
        // Redirection overlay vs with_redirected_transition.
        let s0 = m.reset();
        let redirected = m.with_redirected_transition(s0, inc, s0);
        let out = m.step(s0, inc).unwrap().1;
        let patched = m.patched(s0, inc, s0, out);
        for s in m.states() {
            for i in [inc, hold] {
                assert_eq!(patched.step_patched(s, i), redirected.step(s, i));
            }
        }
        // Output overlay vs with_changed_output.
        let high = OutputSym(1);
        let relabeled = m.with_changed_output(s0, hold, high);
        let next = m.step(s0, hold).unwrap().0;
        let patched = m.patched(s0, hold, next, high);
        for s in m.states() {
            for i in [inc, hold] {
                assert_eq!(patched.step_patched(s, i), relabeled.step(s, i));
            }
        }
        assert_eq!(patched.base().num_states(), m.num_states());
    }

    #[test]
    fn patched_run_matches_cloned_run_and_truncates() {
        let mut b = MealyBuilder::new();
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let i = b.add_input("i");
        let j = b.add_input("j");
        let o = b.add_output("o");
        b.add_transition(s0, i, s1, o);
        b.add_transition(s1, i, s0, o);
        b.add_transition(s0, j, s0, o);
        // (s1, j) undefined: runs through it truncate in both views.
        let m = b.build(s0).unwrap();
        let cloned = m.with_redirected_transition(s0, i, s0);
        let patched = m.patched(s0, i, s0, o);
        for seq in [vec![i, i, j, i], vec![i, j, j], vec![j, i, i, i, j]] {
            assert_eq!(patched.run(s0, &seq), cloned.run(s0, &seq), "{seq:?}");
        }
    }

    #[test]
    #[should_panic(expected = "transition must be defined")]
    fn patched_panics_on_undefined_transition() {
        let mut b = MealyBuilder::new();
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let i = b.add_input("i");
        let o = b.add_output("o");
        b.add_transition(s0, i, s1, o);
        let m = b.build(s0).unwrap();
        let _ = m.patched(s1, i, s0, o);
    }

    #[test]
    fn partial_machine_run_truncates() {
        let mut b = MealyBuilder::new();
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let i = b.add_input("i");
        let o = b.add_output("o");
        b.add_transition(s0, i, s1, o);
        let m = b.build(s0).unwrap();
        assert!(!m.is_complete());
        let (states, outs) = m.run(s0, &[i, i, i]);
        assert_eq!(states.len(), 2);
        assert_eq!(outs.len(), 1);
    }

    #[test]
    fn dot_output_mentions_labels() {
        let m = mod3();
        let dot = m.to_dot();
        assert!(dot.contains("s0"));
        assert!(dot.contains("inc/low"));
        assert!(dot.starts_with("digraph"));
    }
}
