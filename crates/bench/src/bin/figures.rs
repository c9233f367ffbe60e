//! Regenerates every figure and table of the BGLS paper (SC-W 2023).
//!
//! ```text
//! figures <fig1|fig2|fig3a|fig3b|fig4a|fig4b|fig5|fig6|fig7a|fig7b|fig8|opt|gbg|all> [--quick]
//! ```
//!
//! Each subcommand prints the series the corresponding paper plot shows;
//! `EXPERIMENTS.md` records paper-vs-measured for every row. `--quick`
//! shrinks the sweeps for smoke-testing.

use bgls_apps::{
    brute_force_maxcut, cut_value, empirical_distribution, ghz_random_cnot_circuit, overlap,
    random_fixed_cnot_circuit, random_fixed_depth_circuit, solve_maxcut_qaoa_mps, Graph,
};
use bgls_bench::{
    clifford_t_workload, clifford_workload, fmt_secs, time_median, universal_workload,
};
use bgls_circuit::{fuse, substitute_gate, Circuit, Gate, Operation, Qubit};
use bgls_core::{QubitByQubitSimulator, Simulator, SimulatorOptions};
use bgls_mps::LazyNetworkState;
use bgls_stabilizer::{near_clifford_simulator, stabilizer_extent_rz, ChForm, TableauSimulator};
use bgls_statevector::StateVector;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::f64::consts::PI;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_string());
    let run = |name: &str| which == "all" || which == name;

    if run("fig1") {
        fig1();
    }
    if run("fig2") {
        fig2(quick);
    }
    if run("fig3a") {
        fig3a(quick);
    }
    if run("fig3b") {
        fig3b(quick);
    }
    if run("fig4a") {
        fig4a(quick);
    }
    if run("fig4b") {
        fig4b(quick);
    }
    if run("fig5") {
        fig5(quick);
    }
    if run("fig6") {
        fig6(quick);
    }
    if run("fig7a") {
        fig7a(quick);
    }
    if run("fig7b") {
        fig7b(quick);
    }
    if run("fig8") {
        fig8(quick);
    }
    if run("opt") {
        opt_table(quick);
    }
    if run("gbg") {
        gbg_vs_qbq(quick);
    }
}

fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Fig. 1: measurement histogram of the 2-qubit GHZ circuit.
fn fig1() {
    header("Fig 1: GHZ measurement histogram (10 and 1000 repetitions)");
    let mut circuit = Circuit::new();
    circuit.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
    circuit.push(Operation::gate(Gate::Cnot, vec![Qubit(0), Qubit(1)]).unwrap());
    circuit.push(Operation::measure(Qubit::range(2), "z").unwrap());
    for reps in [10u64, 1000] {
        let sim = Simulator::new(StateVector::zero(2)).with_seed(2023);
        let result = sim.run(&circuit, reps).unwrap();
        let h = result.histogram("z").unwrap();
        println!("repetitions = {reps}:");
        for (bits, count) in h.iter_sorted() {
            println!("  {bits}: {count}");
        }
    }
}

/// Fig. 2: runtime vs repetitions saturates under sample parallelization.
fn fig2(quick: bool) {
    header("Fig 2: sample parallelization saturates runtime at many repetitions");
    let circuit = {
        let mut c = universal_workload(8, if quick { 10 } else { 20 }, 42);
        c.push(Operation::measure(Qubit::range(8), "m").unwrap());
        c
    };
    let max_pow = if quick { 10 } else { 14 };
    println!(
        "{:>8}  {:>10}  {:>10}  {:>10}",
        "reps", "parallel", "per-sample", "ratio"
    );
    for pow in (0..=max_pow).step_by(2) {
        let reps = 1u64 << pow;
        let par = Simulator::new(StateVector::zero(8)).with_seed(7);
        let t_par = time_median(3, || {
            par.run(&circuit, reps).unwrap();
        });
        // per-sample path: disable the multiplicity map (repetitions
        // still fan out across Rayon threads; RAYON_NUM_THREADS=1 gives
        // the paper's serial loop)
        let seq = Simulator::new(StateVector::zero(8)).with_options(SimulatorOptions {
            seed: Some(7),
            parallelize_samples: false,
            ..Default::default()
        });
        let t_seq = if reps <= 1 << 10 {
            time_median(1, || {
                seq.run(&circuit, reps).unwrap();
            })
        } else {
            f64::NAN // too slow to run at full reps; the point is made
        };
        println!(
            "{:>8}  {}  {}  {:>9.1}x",
            reps,
            fmt_secs(t_par),
            if t_seq.is_nan() {
                "       (skip)".to_string()
            } else {
                fmt_secs(t_seq)
            },
            t_seq / t_par
        );
    }
}

/// Fig. 3a: Clifford sampling runtime vs circuit depth (CH form).
fn fig3a(quick: bool) {
    header("Fig 3a: Clifford sampling runtime scaling with depth (n = 10)");
    let depths: &[usize] = if quick {
        &[10, 50, 100]
    } else {
        &[10, 25, 50, 100, 200, 400]
    };
    println!("{:>8}  {:>10}  {:>12}", "depth", "bgls(CH)", "tableau-ref");
    for &d in depths {
        let circuit = clifford_workload(10, d, 11);
        let sim = Simulator::new(ChForm::zero(10)).with_seed(3);
        let t = time_median(3, || {
            sim.sample_final_bitstrings(&circuit, 100).unwrap();
        });
        let tab = TableauSimulator::new(10).with_seed(3);
        let tt = time_median(3, || {
            tab.sample(&circuit, 100).unwrap();
        });
        println!("{:>8}  {}  {}", d, fmt_secs(t), fmt_secs(tt));
    }
}

/// Fig. 3b: Clifford sampling runtime vs width (CH form).
fn fig3b(quick: bool) {
    header("Fig 3b: Clifford sampling runtime scaling with width (depth = 100)");
    let widths: &[usize] = if quick {
        &[4, 16, 32]
    } else {
        &[4, 8, 16, 32, 48, 64]
    };
    println!("{:>8}  {:>10}  {:>12}", "width", "bgls(CH)", "tableau-ref");
    for &n in widths {
        let circuit = clifford_workload(n, 100, 13);
        let sim = Simulator::new(ChForm::zero(n)).with_seed(3);
        let t = time_median(3, || {
            sim.sample_final_bitstrings(&circuit, 100).unwrap();
        });
        let tab = TableauSimulator::new(n).with_seed(3);
        let tt = time_median(3, || {
            tab.sample(&circuit, 100).unwrap();
        });
        println!("{:>8}  {}  {}", n, fmt_secs(t), fmt_secs(tt));
    }
}

/// Fig. 4a: overlap vs samples for pure-Clifford and near-Clifford.
fn fig4a(quick: bool) {
    header("Fig 4a: overlap vs samples, pure-Clifford vs near-Clifford (sum-over-Cliffords)");
    let n = 6;
    let (ct, n_t) = clifford_t_workload(n, 20, 8, 5);
    let pure = substitute_gate(&ct, &Gate::T, &Gate::S);
    println!("(circuit: n = {n}, 20 moments, {n_t} T gates)");
    let ideal_t = StateVector::from_circuit(&ct, n)
        .unwrap()
        .born_distribution();
    let ideal_s = StateVector::from_circuit(&pure, n)
        .unwrap()
        .born_distribution();
    let powers: &[u32] = if quick {
        &[4, 7, 10]
    } else {
        &[4, 6, 8, 10, 12, 13]
    };
    println!(
        "{:>8}  {:>14}  {:>14}",
        "samples", "pure-Clifford", "near-Clifford"
    );
    for &p in powers {
        let reps = 1u64 << p;
        let pure_samples = Simulator::new(ChForm::zero(n))
            .with_seed(p as u64)
            .sample_final_bitstrings(&pure, reps)
            .unwrap();
        let ov_pure = overlap(&empirical_distribution(&pure_samples, n), &ideal_s);
        let nc_samples = near_clifford_simulator(n)
            .with_seed(p as u64 + 100)
            .sample_final_bitstrings(&ct, reps)
            .unwrap();
        let ov_nc = overlap(&empirical_distribution(&nc_samples, n), &ideal_t);
        println!("{:>8}  {:>14.4}  {:>14.4}", reps, ov_pure, ov_nc);
    }
}

/// Fig. 4b: overlap vs rotation angle for Clifford+R(theta).
fn fig4b(quick: bool) {
    header("Fig 4b: Clifford+R(theta) overlap vs angle (fixed samples)");
    let n = 6;
    let (ct, _) = clifford_t_workload(n, 20, 6, 9);
    let steps = if quick { 8 } else { 24 };
    let reps = if quick { 512 } else { 2048 };
    println!(
        "{:>10}  {:>10}  {:>12}  {:>10}",
        "theta/pi", "bgls", "exact-sim", "extent"
    );
    for k in 0..=steps {
        let theta = 2.0 * PI * k as f64 / steps as f64;
        let circ = substitute_gate(&ct, &Gate::T, &Gate::Rz(theta.into()));
        let ideal = StateVector::from_circuit(&circ, n)
            .unwrap()
            .born_distribution();
        let nc = near_clifford_simulator(n)
            .with_seed(k as u64)
            .sample_final_bitstrings(&circ, reps)
            .unwrap();
        let ov_nc = overlap(&empirical_distribution(&nc, n), &ideal);
        let exact = Simulator::new(StateVector::zero(n))
            .with_seed(k as u64 + 1)
            .sample_final_bitstrings(&circ, reps)
            .unwrap();
        let ov_exact = overlap(&empirical_distribution(&exact, n), &ideal);
        println!(
            "{:>10.3}  {:>10.4}  {:>12.4}  {:>10.5}",
            theta / PI,
            ov_nc,
            ov_exact,
            stabilizer_extent_rz(theta)
        );
    }
}

/// Fig. 5: overlap decays as more T gates replace Clifford gates.
fn fig5(quick: bool) {
    header("Fig 5: sum-over-Cliffords overlap vs number of T gates (100-moment circuit)");
    let n = 8;
    let reps = if quick { 512 } else { 2048 };
    let counts: &[usize] = if quick {
        &[0, 4, 12]
    } else {
        &[0, 2, 4, 6, 8, 12, 16, 24]
    };
    println!("{:>8}  {:>10}", "#T", "overlap");
    for &k in counts {
        let (circ, made) = clifford_t_workload(n, 100, k, 21);
        assert_eq!(made, k);
        let ideal = StateVector::from_circuit(&circ, n)
            .unwrap()
            .born_distribution();
        let samples = near_clifford_simulator(n)
            .with_seed(k as u64)
            .sample_final_bitstrings(&circ, reps)
            .unwrap();
        let ov = overlap(&empirical_distribution(&samples, n), &ideal);
        println!("{:>8}  {:>10.4}", k, ov);
    }
}

/// Fig. 6: GHZ with random CNOT sequencing — MPS vs state vector, both
/// scale exponentially with width.
fn fig6(quick: bool) {
    header("Fig 6: random-CNOT GHZ sampling runtime, lazy MPS vs state vector");
    let widths: Vec<usize> = if quick {
        vec![4, 8, 12]
    } else {
        (2..=18).step_by(2).collect()
    };
    let reps = 50;
    println!("{:>8}  {:>10}  {:>10}", "width", "mps", "statevec");
    for &n in &widths {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let circuit = ghz_random_cnot_circuit(n, &mut rng);
        let t_mps = time_median(1, || {
            Simulator::new(LazyNetworkState::zero(n))
                .with_seed(1)
                .sample_final_bitstrings(&circuit, reps)
                .unwrap();
        });
        let t_sv = time_median(1, || {
            Simulator::new(StateVector::zero(n))
                .with_seed(1)
                .sample_final_bitstrings(&circuit, reps)
                .unwrap();
        });
        println!("{:>8}  {}  {}", n, fmt_secs(t_mps), fmt_secs(t_sv));
    }
}

/// Fig. 7a: fixed-depth random circuits — MPS much faster than the state
/// vector as width grows.
fn fig7a(quick: bool) {
    header("Fig 7a: fixed-depth random circuits, lazy MPS vs state vector");
    let widths: Vec<usize> = if quick {
        vec![6, 12]
    } else {
        vec![4, 8, 12, 16, 20, 24]
    };
    let reps = 50;
    println!("{:>8}  {:>10}  {:>10}", "width", "mps", "statevec");
    for &n in &widths {
        let mut rng = StdRng::seed_from_u64(n as u64 + 50);
        let circuit = random_fixed_depth_circuit(n, 4, 2, &mut rng);
        let t_mps = time_median(1, || {
            Simulator::new(LazyNetworkState::zero(n))
                .with_seed(1)
                .sample_final_bitstrings(&circuit, reps)
                .unwrap();
        });
        let sv = if n <= 20 {
            fmt_secs(time_median(1, || {
                Simulator::new(StateVector::zero(n))
                    .with_seed(1)
                    .sample_final_bitstrings(&circuit, reps)
                    .unwrap();
            }))
        } else {
            "   (too big)".to_string()
        };
        println!("{:>8}  {}  {}", n, fmt_secs(t_mps), sv);
    }
}

/// Fig. 7b: fixed number of CNOTs — near-linear MPS scaling with width.
fn fig7b(quick: bool) {
    header("Fig 7b: fixed-CNOT-count random circuits, lazy MPS runtime vs width");
    let widths: Vec<usize> = if quick {
        vec![8, 24, 48]
    } else {
        (8..=64).step_by(8).collect()
    };
    let reps = 50;
    println!("{:>8}  {:>10}", "width", "mps");
    for &n in &widths {
        let mut rng = StdRng::seed_from_u64(n as u64 + 99);
        let circuit = random_fixed_cnot_circuit(n, 2, 8, &mut rng);
        let t = time_median(1, || {
            Simulator::new(LazyNetworkState::zero(n))
                .with_seed(1)
                .sample_final_bitstrings(&circuit, reps)
                .unwrap();
        });
        println!("{:>8}  {}", n, fmt_secs(t));
    }
}

/// Figs. 8–9: QAOA MaxCut on G(10, 0.3) with a chi-capped chain MPS.
fn fig8(quick: bool) {
    header("Figs 8-9: QAOA MaxCut on Erdos-Renyi G(10, 0.3), 1 layer, chi-capped MPS");
    let mut rng = StdRng::seed_from_u64(2023);
    let graph = Graph::erdos_renyi(10, 0.3, &mut rng);
    println!(
        "graph: {} vertices, {} edges: {:?}",
        graph.num_vertices(),
        graph.num_edges(),
        graph.edges()
    );
    let (opt_bits, opt_cut) = brute_force_maxcut(&graph);
    let (grid, sweep_samples, final_samples) = if quick { (4, 50, 200) } else { (10, 100, 1000) };
    let sol = solve_maxcut_qaoa_mps(&graph, 16, grid, sweep_samples, final_samples, 17).unwrap();
    println!(
        "sweep: {} configurations x {} samples, best (gamma, beta) = ({:.3}, {:.3}), mean cut {:.3}",
        sol.sweep.sweep.len(),
        sweep_samples,
        sol.sweep.best_params.0,
        sol.sweep.best_params.1,
        sol.sweep.best_mean_cut
    );
    println!(
        "solution: partition {} with cut {} (brute-force optimum: {} at {})",
        sol.partition, sol.cut, opt_cut, opt_bits
    );
    assert_eq!(cut_value(&graph, sol.partition), sol.cut);
}

/// Docs "tips" table: `fuse` speedup on random 8-qubit circuits.
fn opt_table(quick: bool) {
    header("Optimization table: fuse speedup (random 8-qubit circuits)");
    let layers: &[usize] = if quick {
        &[10, 50]
    } else {
        &[10, 20, 30, 40, 50]
    };
    let reps = 200u64;
    println!(
        "{:>8}  {:>6} {:>6}  {:>10}  {:>10}  {:>8}",
        "layers", "ops", "ops'", "raw", "optimized", "speedup"
    );
    for &l in layers {
        let circuit = universal_workload(8, l, 77);
        let opt = fuse(&circuit);
        let sim = Simulator::new(StateVector::zero(8)).with_seed(5);
        let t_raw = time_median(3, || {
            sim.sample_final_bitstrings(&circuit, reps).unwrap();
        });
        let t_opt = time_median(3, || {
            sim.sample_final_bitstrings(&opt, reps).unwrap();
        });
        println!(
            "{:>8}  {:>6} {:>6}  {}  {}  {:>7.2}x",
            l,
            circuit.num_operations(),
            opt.num_operations(),
            fmt_secs(t_raw),
            fmt_secs(t_opt),
            t_raw / t_opt
        );
    }
}

/// Sec. 2 claim: gate-by-gate vs qubit-by-qubit sampling cost.
fn gbg_vs_qbq(quick: bool) {
    header("Sec 2: gate-by-gate vs qubit-by-qubit sampling (dense state vector)");
    let widths: &[usize] = if quick { &[6, 10] } else { &[6, 8, 10, 12, 14] };
    // Many repetitions: the conventional sampler pays n marginal sums per
    // sample while the gate-by-gate multiplicity map saturates (Fig. 2).
    let reps = if quick { 200u64 } else { 1000 };
    println!(
        "{:>8}  {:>12}  {:>12}  {:>8}",
        "width", "gate-by-gate", "qubit-by-qubit", "ratio"
    );
    for &n in widths {
        let circuit = universal_workload(n, 2 * n, 31);
        let gbg = Simulator::new(StateVector::zero(n)).with_seed(1);
        let t_gbg = time_median(3, || {
            gbg.sample_final_bitstrings(&circuit, reps).unwrap();
        });
        let qbq = QubitByQubitSimulator::new(StateVector::zero(n)).with_seed(1);
        let t_qbq = time_median(3, || {
            qbq.sample_final_bitstrings(&circuit, reps).unwrap();
        });
        println!(
            "{:>8}  {:>12}  {:>14}  {:>7.2}x",
            n,
            fmt_secs(t_gbg),
            fmt_secs(t_qbq),
            t_qbq / t_gbg
        );
    }
}
