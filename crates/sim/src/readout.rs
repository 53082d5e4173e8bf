//! Prepared readout: a breakpoint's measurement, worked out once and
//! shared by every shot.
//!
//! Measuring qubit `q` splits into an outcome *rule* ([`Rule`]: a fixed
//! bit and no draw, or one uniform `u` with outcome `u < P(1)`) and a
//! *projection* of the state onto that outcome ([`Collapse`]). The
//! tableau and the support map measure only through this split: in
//! [`SimBackend::measure_qubit`] and in [`Readout`], which serves their
//! [`SimBackend::sample_each`] (and so their one-shot
//! [`SimBackend::sample_once`]), so the two cannot drift apart.
//!
//! A shot measures its qubits in list order, as `measure_qubit` on a
//! copy of the state would, so the rule at each position depends only
//! on the outcomes drawn before it. [`Readout`] keeps those rules in a
//! prefix trie. A shot walks the trie making exactly the draws that
//! measuring on a copy makes. Only a shot whose outcomes leave the
//! prefixes earlier shots reached copies the state, once, replays the
//! projections of its known prefix and measures on, adding its path to
//! the trie. An ensemble then costs one state copy per distinct outcome
//! rather than one per shot: two for the end qubits of a GHZ state,
//! however many shots are drawn.

use rand::Rng;

use crate::backend::SimBackend;

/// How measuring one qubit decides its outcome.
#[derive(Clone, Copy)]
pub(crate) enum Rule {
    /// The outcome is this bit, and nothing is drawn.
    Fixed(bool),
    /// One uniform `u` is drawn, and the outcome is `u < P(1)`.
    Draw(f64),
}

impl Rule {
    /// The probability that the outcome is `1`.
    pub(crate) fn p_one(self) -> f64 {
        match self {
            Rule::Fixed(bit) => f64::from(u8::from(bit)),
            Rule::Draw(p_one) => p_one,
        }
    }

    /// The outcome, drawing from `rng` as the rule says.
    fn decide<R: Rng + ?Sized>(self, rng: &mut R) -> bool {
        match self {
            Rule::Fixed(bit) => bit,
            Rule::Draw(p_one) => rng.gen::<f64>() < p_one,
        }
    }
}

/// A backend whose measurement splits into an outcome rule and a
/// projection.
pub(crate) trait Collapse: SimBackend {
    /// How measuring `q` now decides its outcome.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    fn rule(&self, q: usize) -> Rule;

    /// Collapse onto outcome `bit` of `q`, an outcome `q`'s rule can
    /// give.
    fn project(&mut self, q: usize, bit: bool);
}

/// Measure `q`: decide its outcome by its rule, then project onto it.
pub(crate) fn measure<B: Collapse, R: Rng + ?Sized>(state: &mut B, q: usize, rng: &mut R) -> u8 {
    let bit = state.rule(q).decide(rng);
    state.project(q, bit);
    u8::from(bit)
}

/// [`SimBackend::sample_each`] through one [`Readout`].
pub(crate) fn sample_each<'r, B: Collapse, R: Rng + ?Sized + 'r>(
    state: &B,
    qubits: &[usize],
    rngs: impl IntoIterator<Item = &'r mut R>,
) -> Vec<u64> {
    let mut readout = Readout::new(state, qubits);
    rngs.into_iter().map(|rng| readout.draw(rng)).collect()
}

/// `next` entry of a prefix no shot has reached. Node 0 is the root,
/// which is no node's child.
const UNREACHED: usize = 0;

/// `next` entry of a reached complete outcome, at the last position.
const COMPLETE: usize = usize::MAX;

/// One reached outcome prefix.
struct Node {
    /// The rule of the qubit measured after this prefix.
    rule: Rule,
    /// The node of this prefix extended by outcome `0` and by `1`:
    /// [`UNREACHED`] until a shot draws it, [`COMPLETE`] at the last
    /// position once a shot has.
    next: [usize; 2],
}

/// The measurement of `qubits` on one state, prepared once and drawn
/// from shot by shot (see the [module docs](self)).
///
/// It holds at most one working copy of the state, and at most one
/// node per drawn shot and listed qubit.
pub(crate) struct Readout<'a, B> {
    state: &'a B,
    qubits: &'a [usize],
    /// The trie, root first; empty until the first shot.
    nodes: Vec<Node>,
    /// The one working copy: a shot that leaves the trie measures on it.
    work: Option<B>,
    /// Shots that left the trie, each paying one copy of the state.
    replays: usize,
}

impl<'a, B: Collapse> Readout<'a, B> {
    /// A readout of `qubits` on `state`. Nothing is measured until the
    /// first shot.
    pub(crate) fn new(state: &'a B, qubits: &'a [usize]) -> Self {
        Self {
            state,
            qubits,
            nodes: Vec::new(),
            work: None,
            replays: 0,
        }
    }

    /// Draw one shot: the outcome measuring `qubits` in list order on a
    /// copy of the state gives, leaving `rng` where that leaves it.
    ///
    /// # Panics
    ///
    /// As [`SimBackend::sample_each`].
    pub(crate) fn draw<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        assert!(self.qubits.len() <= 64, "cannot pack more than 64 qubits");
        let Some(&first) = self.qubits.first() else {
            return 0;
        };
        if self.nodes.is_empty() {
            self.nodes.push(Node {
                rule: self.state.rule(first),
                next: [UNREACHED; 2],
            });
        }
        let mut node = 0;
        let mut out = 0u64;
        for pos in 0..self.qubits.len() {
            let bit = self.nodes[node].rule.decide(rng);
            out |= u64::from(bit) << pos;
            match self.nodes[node].next[usize::from(bit)] {
                UNREACHED => return self.measure_on(node, pos, out, rng),
                next => node = next,
            }
        }
        out
    }

    /// The shot drew `out`'s bits `..=pos`, the last from `node`, and
    /// left the trie there: copy the state, replay the projections of
    /// those bits, and measure the remaining qubits in list order,
    /// adding each new prefix to the trie.
    fn measure_on<R: Rng + ?Sized>(
        &mut self,
        mut node: usize,
        pos: usize,
        mut out: u64,
        rng: &mut R,
    ) -> u64 {
        self.replays += 1;
        let work = match &mut self.work {
            Some(work) => {
                work.copy_from(self.state);
                work
            }
            None => self.work.insert(self.state.clone()),
        };
        for (i, &q) in self.qubits[..=pos].iter().enumerate() {
            work.project(q, out >> i & 1 == 1);
        }
        let mut bit = out >> pos & 1 == 1;
        for (i, &q) in self.qubits.iter().enumerate().skip(pos + 1) {
            let rule = work.rule(q);
            self.nodes[node].next[usize::from(bit)] = self.nodes.len();
            node = self.nodes.len();
            self.nodes.push(Node {
                rule,
                next: [UNREACHED; 2],
            });
            bit = rule.decide(rng);
            work.project(q, bit);
            out |= u64::from(bit) << i;
        }
        self.nodes[node].next[usize::from(bit)] = COMPLETE;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stabilizer::StabilizerState;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ghz(n: usize) -> StabilizerState {
        let mut s = StabilizerState::zero(n).unwrap();
        s.h(0);
        for q in 1..n {
            s.cx(q - 1, q);
        }
        s
    }

    #[test]
    fn ghz_end_pair_replays_once_per_outcome() {
        // The per-breakpoint claim: 1,024 shots of the end qubits of a
        // 100-qubit GHZ state copy the tableau at most twice, once per
        // outcome, where measuring each shot on a copy copies it 1,024
        // times.
        let s = ghz(100);
        let qubits = [0, 99];
        let mut readout = Readout::new(&s, &qubits);
        let mut rng = StdRng::seed_from_u64(3);
        let mut reference = rng.clone();
        for _ in 0..1024 {
            let mut copy = s.clone();
            let (a, b) = (
                copy.measure_qubit(0, &mut reference),
                copy.measure_qubit(99, &mut reference),
            );
            assert_eq!(readout.draw(&mut rng), u64::from(a | b << 1));
        }
        assert_eq!(rng, reference);
        assert!(readout.replays <= 2, "{} replays", readout.replays);
        assert!(readout.nodes.len() <= 3);
    }

    #[test]
    fn fixed_outcomes_replay_once() {
        // A classical register: every rule is fixed, so one shot walks
        // the only path and the rest draw nothing.
        let mut s = StabilizerState::zero(8).unwrap();
        s.x(3);
        let qubits = [0, 3, 7];
        let mut readout = Readout::new(&s, &qubits);
        let mut rng = StdRng::seed_from_u64(1);
        let before = rng.clone();
        for _ in 0..64 {
            assert_eq!(readout.draw(&mut rng), 0b010);
        }
        assert_eq!(rng, before, "fixed outcomes draw nothing");
        assert_eq!(readout.replays, 1);
    }
}
