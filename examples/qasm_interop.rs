//! Using BGLS with non-native circuits via OpenQASM (paper Sec. 3.2.4):
//! parse a hand-written QASM 2.0 program, sample it gate-by-gate, and
//! export a circuit back to QASM.
//!
//! ```text
//! cargo run --example qasm_interop
//! ```

use bgls_circuit::{from_qasm, fuse, to_qasm};
use bgls_core::Simulator;
use bgls_statevector::StateVector;

const PROGRAM: &str = r#"
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
// a W-ish state preparation with rotations and entanglers
ry(1.9106332362490186) q[0];   // 2*acos(1/sqrt(3))
h q[1];
cx q[0], q[1];
rz(pi/4) q[1];
cx q[1], q[2];
t q[2];
h q[2];
measure q[0] -> c[0];
measure q[1] -> c[1];
measure q[2] -> c[2];
"#;

fn main() {
    let circuit = from_qasm(PROGRAM).expect("parse QASM");
    println!(
        "parsed {} operations over {} qubits ({} moments)",
        circuit.num_operations(),
        circuit.num_qubits(),
        circuit.depth()
    );

    let sim = Simulator::new(StateVector::zero(3)).with_seed(9);
    let result = sim.run(&circuit, 4000).expect("run");
    let h = result.histogram("c").expect("creg c");
    println!("\nsampled distribution (4000 shots):");
    for (bits, count) in h.iter_sorted() {
        println!("  {bits}: {count:>5}  ({:.3})", count as f64 / 4000.0);
    }

    // round-trip: fuse single-qubit runs, re-export what stays expressible
    let stripped = circuit.without_measurements();
    let merged = fuse(&stripped);
    println!(
        "\nfuse: {} ops -> {} ops",
        stripped.num_operations(),
        merged.num_operations()
    );
    let qasm = to_qasm(&stripped).expect("export");
    println!("\nre-exported QASM:\n{qasm}");
}
