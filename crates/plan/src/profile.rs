//! Static circuit inspection: the feature vector the planner routes on.

use bgls_circuit::{Circuit, Gate};

/// Structural features of a circuit that determine which backend and
/// execution path simulate it best.
///
/// Everything here is computed in one `O(ops * qubits)` pass over the
/// circuit — cheap relative to any simulation — and is deliberately
/// *syntactic*: the profile never simulates anything, it only counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CircuitProfile {
    /// Width implied by the highest qubit index touched.
    pub num_qubits: usize,
    /// Total operations (gates + measurements + channels).
    pub num_operations: usize,
    /// Unitary gate operations.
    pub num_gates: usize,
    /// Gates with a stabilizer (Clifford) effect.
    pub clifford_gates: usize,
    /// Gates acting on two or more qubits (the entanglement producers).
    pub entangling_gates: usize,
    /// Largest operation support (3 means a Toffoli-class gate is
    /// present, which the chain-MPS and lazy-network backends reject).
    pub max_arity: usize,
    /// Any Kraus channel present.
    pub has_channels: bool,
    /// Any measurement present.
    pub has_measurements: bool,
    /// Some measurement is followed by a later non-measurement operation
    /// on one of its qubits, so sampling must collapse mid-run
    /// (projective collapse). Agrees with
    /// [`Circuit::measurements_are_terminal`], which the simulator's
    /// engine choice reads.
    pub mid_circuit_measurements: bool,
    /// Unresolved symbolic parameters remain.
    pub parameterized: bool,
    /// Operations that fork a trajectory: channel applications plus
    /// qubits measured mid-circuit. The trajectory forest's frontier is
    /// bounded by roughly `2^fork_ops` distinct branch histories.
    pub fork_ops: usize,
    /// `log2` of the Schmidt-rank bound across every contiguous
    /// bipartition cut: for each cut, the rank is at most
    /// `2^min(crossing entangling ops, qubits on the smaller side)`.
    /// Product states give `0`; a brickwork circuit of depth `d` on a
    /// chain gives roughly `min(d, n/2)`.
    pub log2_chi_bound: u32,
}

impl CircuitProfile {
    /// Profiles `circuit` in one pass.
    pub fn of(circuit: &Circuit) -> Self {
        let num_qubits = circuit.num_qubits();
        let mut p = CircuitProfile {
            num_qubits,
            num_operations: circuit.num_operations(),
            num_gates: 0,
            clifford_gates: 0,
            entangling_gates: 0,
            max_arity: 0,
            has_channels: false,
            has_measurements: false,
            mid_circuit_measurements: false,
            parameterized: circuit.is_parameterized(),
            fork_ops: 0,
            log2_chi_bound: 0,
        };
        // Entangling ops crossing each contiguous cut `c` (between qubit
        // c-1 and c), for the Schmidt-rank bound.
        let mut cut_crossings = vec![0usize; num_qubits.saturating_sub(1)];
        let moments = circuit.moments();
        for (i, moment) in moments.iter().enumerate() {
            for op in moment.operations() {
                let support = op.support();
                if !op.is_measurement() {
                    // Measurements of any width are fine everywhere; only
                    // gate/channel supports constrain the backends.
                    p.max_arity = p.max_arity.max(support.len());
                }
                if let Some(g) = op.as_gate() {
                    p.num_gates += 1;
                    if g.has_stabilizer_effect() {
                        p.clifford_gates += 1;
                    }
                }
                if op.is_channel() {
                    p.has_channels = true;
                    p.fork_ops += 1;
                }
                if op.is_measurement() {
                    p.has_measurements = true;
                    // Mid-circuit iff some later non-measurement operation
                    // touches one of the measured qubits again.
                    let later_touches = moments[i + 1..].iter().any(|m| {
                        m.operations().iter().any(|o| {
                            !o.is_measurement() && o.support().iter().any(|q| support.contains(q))
                        })
                    });
                    if later_touches {
                        p.mid_circuit_measurements = true;
                        p.fork_ops += support.len();
                    }
                }
                if support.len() >= 2 && !op.is_measurement() {
                    p.entangling_gates += usize::from(op.as_gate().is_some());
                    let (lo, hi) = support.iter().fold((usize::MAX, 0), |(lo, hi), q| {
                        (lo.min(q.0 as usize), hi.max(q.0 as usize))
                    });
                    // Each crossing gate can at most multiply the cut's
                    // Schmidt rank by its operator-Schmidt rank: 2 for
                    // the controlled named gates (CNOT, CZ, Toffoli,
                    // CPhase, Rzz, ...); for SWAP-class gates and
                    // arbitrary matrices the rank is bounded per cut by
                    // `4^min(lo_span, hi_span)` over the support split —
                    // 4 for merged U4s from the optimizer, and growing
                    // with the split for wider `U(_, k)` gates so the
                    // chi bound stays sound at any arity.
                    let generic = matches!(
                        op.as_gate(),
                        Some(Gate::Swap | Gate::ISwap | Gate::U2(_) | Gate::U(_, _))
                    );
                    for (cut, crossings) in cut_crossings.iter_mut().enumerate().take(hi).skip(lo) {
                        *crossings += if generic {
                            let lo_span = support.iter().filter(|q| q.0 as usize <= cut).count();
                            let hi_span = support.len() - lo_span;
                            2 * lo_span.min(hi_span)
                        } else {
                            1
                        };
                    }
                }
            }
        }
        p.log2_chi_bound = cut_crossings
            .iter()
            .enumerate()
            .map(|(i, &crossings)| {
                let c = i + 1; // qubits strictly left of the cut
                crossings.min(c).min(num_qubits - c) as u32
            })
            .max()
            .unwrap_or(0);
        p
    }

    /// Fully Clifford: every gate has a stabilizer effect, no channels,
    /// no unresolved parameters. Stabilizer backends can run it.
    pub fn is_clifford(&self) -> bool {
        !self.has_channels && !self.parameterized && self.clifford_gates == self.num_gates
    }

    /// Fraction of gates with a stabilizer effect (`1.0` when gateless).
    pub fn clifford_fraction(&self) -> f64 {
        if self.num_gates == 0 {
            1.0
        } else {
            self.clifford_gates as f64 / self.num_gates as f64
        }
    }

    /// The Schmidt-rank (bond-dimension) bound `2^log2_chi_bound`,
    /// saturating instead of overflowing for deep wide circuits.
    pub fn chi_bound(&self) -> u64 {
        1u64 << self.log2_chi_bound.min(62)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use bgls_circuit::{Channel, Gate, Operation, Qubit};

    fn q(i: u32) -> Qubit {
        Qubit(i)
    }

    #[test]
    fn profiles_a_ghz_circuit() {
        let mut c = Circuit::new();
        c.push(Operation::gate(Gate::H, vec![q(0)]).unwrap());
        for i in 1..6u32 {
            c.push(Operation::gate(Gate::Cnot, vec![q(i - 1), q(i)]).unwrap());
        }
        c.push(Operation::measure(vec![q(0), q(5)], "m").unwrap());
        let p = CircuitProfile::of(&c);
        assert_eq!(p.num_qubits, 6);
        assert_eq!(p.num_gates, 6);
        assert_eq!(p.clifford_gates, 6);
        assert_eq!(p.entangling_gates, 5);
        assert!(p.is_clifford());
        assert!(p.has_measurements);
        assert!(!p.mid_circuit_measurements);
        assert_eq!(p.fork_ops, 0);
        // A single CNOT ladder crosses every cut once: chi <= 2.
        assert_eq!(p.log2_chi_bound, 1);
    }

    #[test]
    fn detects_mid_circuit_measurement_and_forks() {
        let mut c = Circuit::new();
        c.push(Operation::gate(Gate::H, vec![q(0)]).unwrap());
        c.push(Operation::measure(vec![q(0)], "early").unwrap());
        c.push(Operation::gate(Gate::X, vec![q(0)]).unwrap());
        c.push(Operation::measure(vec![q(0)], "late").unwrap());
        let p = CircuitProfile::of(&c);
        assert!(p.mid_circuit_measurements);
        assert_eq!(p.fork_ops, 1); // only the early measurement forks

        // reading a qubit out twice collapses nothing a later gate sees
        let mut twice = Circuit::new();
        twice.push(Operation::gate(Gate::T, vec![q(0)]).unwrap());
        twice.push(Operation::measure(vec![q(0)], "a").unwrap());
        twice.push(Operation::measure(vec![q(0)], "b").unwrap());
        assert!(twice.measurements_are_terminal());
        let p = CircuitProfile::of(&twice);
        assert!(!p.mid_circuit_measurements);
        assert_eq!(p.fork_ops, 0);
    }

    #[test]
    fn counts_channels_and_t_gates() {
        let mut c = Circuit::new();
        c.push(Operation::gate(Gate::T, vec![q(0)]).unwrap());
        c.push(Operation::channel(Channel::bit_flip(0.1).unwrap(), vec![q(0)]).unwrap());
        c.push(Operation::measure(vec![q(0)], "m").unwrap());
        let p = CircuitProfile::of(&c);
        assert!(p.has_channels);
        assert!(!p.is_clifford());
        assert_eq!(p.fork_ops, 1);
        assert!((p.clifford_fraction() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn chi_bound_saturates_at_the_half_chain() {
        // Deep brickwork on 4 qubits: rank bounded by the smaller side
        // (2 qubits -> log2 chi <= 2), no matter how many layers.
        let mut c = Circuit::new();
        for _ in 0..10 {
            for i in 0..3u32 {
                c.push(Operation::gate(Gate::Cz, vec![q(i), q(i + 1)]).unwrap());
            }
        }
        let p = CircuitProfile::of(&c);
        assert_eq!(p.log2_chi_bound, 2);
        assert_eq!(p.chi_bound(), 4);
    }
}
