//! QAOA for MaxCut (paper Sec. 4.4): circuit construction, the
//! (gamma, beta) grid sweep with BGLS sampling on a runtime-selected
//! backend (the paper's configuration is a chi-capped MPS), and solution
//! extraction.

use crate::graph::Graph;
use crate::maxcut::{cut_value, mean_cut};
use crate::observables::maxcut_hamiltonian;
use bgls_backend::{AnyState, BackendKind};
use bgls_circuit::{Circuit, Gate, Operation, OptimizeConfig, Param, ParamResolver, Qubit};
use bgls_core::{BglsState, BitString, SimError, Simulator, SimulatorOptions};

/// Builds a `p`-layer QAOA MaxCut circuit with symbolic parameters
/// `gamma0..` and `beta0..`. The cost layer applies `Rzz(-gamma)` per
/// edge (implementing `e^{i gamma Z_a Z_b / 2}` per unit edge weight up
/// to global phase), the mixer `Rx(2 beta)` per vertex.
pub fn qaoa_maxcut_circuit(graph: &Graph, layers: usize) -> Circuit {
    let n = graph.num_vertices();
    let mut c = Circuit::new();
    for v in 0..n {
        c.push(Operation::gate(Gate::H, vec![Qubit(v as u32)]).expect("1q"));
    }
    for layer in 0..layers {
        let gamma = Param::symbol(&format!("gamma{layer}")).scaled(-1.0);
        for &(a, b) in graph.edges() {
            c.push(
                Operation::gate(
                    Gate::Rzz(gamma.clone()),
                    vec![Qubit(a as u32), Qubit(b as u32)],
                )
                .expect("2q"),
            );
        }
        let beta = Param::symbol(&format!("beta{layer}")).scaled(2.0);
        for v in 0..n {
            c.push(Operation::gate(Gate::Rx(beta.clone()), vec![Qubit(v as u32)]).expect("1q"));
        }
    }
    c
}

/// Binds one layer's `(gamma, beta)` (or several) into a runnable circuit.
pub fn resolve_qaoa(circuit: &Circuit, gammas: &[f64], betas: &[f64]) -> Circuit {
    let mut r = ParamResolver::new();
    for (i, &g) in gammas.iter().enumerate() {
        r.bind(&format!("gamma{i}"), g);
    }
    for (i, &b) in betas.iter().enumerate() {
        r.bind(&format!("beta{i}"), b);
    }
    circuit.resolve(&r)
}

/// Result of a QAOA parameter sweep.
#[derive(Clone, Debug)]
pub struct QaoaSweepResult {
    /// Best `(gamma, beta)` found.
    pub best_params: (f64, f64),
    /// Mean cut at the best parameters during the sweep.
    pub best_mean_cut: f64,
    /// All sweep points: `(gamma, beta, mean_cut)`.
    pub sweep: Vec<(f64, f64, f64)>,
}

/// Result of the full QAOA MaxCut pipeline.
#[derive(Clone, Debug)]
pub struct QaoaSolution {
    /// The sweep stage outcome.
    pub sweep: QaoaSweepResult,
    /// Best-cut bitstring found in the final sampling round.
    pub partition: BitString,
    /// Its cut value.
    pub cut: usize,
}

/// Sweeps a `grid x grid` of one-layer `(gamma, beta)` values over
/// `[0, pi) x [0, pi/2)`, sampling `samples_per_point` bitstrings per
/// configuration with the supplied simulator factory, and returns the
/// parameters maximizing the mean cut. This mirrors the paper's "initial
/// sweep of 100 samples ... for each configuration".
pub fn qaoa_sweep<S, F>(
    graph: &Graph,
    circuit: &Circuit,
    make_simulator: F,
    grid: usize,
    samples_per_point: u64,
) -> Result<QaoaSweepResult, SimError>
where
    S: BglsState + Send + Sync,
    F: Fn() -> Simulator<S>,
{
    assert!(grid >= 1);
    let (points, _) = qaoa_grid_resolvers(grid);
    let mut sweep = Vec::with_capacity(points.len());
    let mut best = (0.0f64, 0.0f64, f64::NEG_INFINITY);
    for (gamma, beta) in points {
        let bound = resolve_qaoa(circuit, &[gamma], &[beta]);
        let samples = make_simulator().sample_final_bitstrings(&bound, samples_per_point)?;
        let mc = mean_cut(graph, &samples);
        sweep.push((gamma, beta, mc));
        if mc > best.2 {
            best = (gamma, beta, mc);
        }
    }
    Ok(QaoaSweepResult {
        best_params: (best.0, best.1),
        best_mean_cut: best.2,
        sweep,
    })
}

/// The one-layer `(gamma, beta)` grid, as points and as parameter
/// resolvers — the single source of truth for both the sampled sweep
/// ([`qaoa_sweep`]) and the exact landscape
/// ([`qaoa_energy_landscape`]), so the two stay pointwise comparable.
fn qaoa_grid_resolvers(grid: usize) -> (Vec<(f64, f64)>, Vec<ParamResolver>) {
    let mut points = Vec::with_capacity(grid * grid);
    let mut resolvers = Vec::with_capacity(grid * grid);
    for gi in 0..grid {
        let gamma = std::f64::consts::PI * (gi as f64 + 0.5) / grid as f64;
        for bi in 0..grid {
            let beta = std::f64::consts::FRAC_PI_2 * (bi as f64 + 0.5) / grid as f64;
            points.push((gamma, beta));
            let mut r = ParamResolver::new();
            r.bind("gamma0", gamma);
            r.bind("beta0", beta);
            resolvers.push(r);
        }
    }
    (points, resolvers)
}

/// The **exact** one-layer QAOA energy landscape over the same
/// `grid x grid` of `(gamma, beta)` values as [`qaoa_sweep`], scored by
/// the expectation engine instead of sampling: each grid point's mean
/// cut is `<C>` of the MaxCut Hamiltonian ([`maxcut_hamiltonian`]) on
/// the bound circuit's output state, evaluated through
/// `Simulator::expectation_sweep` with zero sampling noise.
///
/// Use this to score parameters when an exact backend fits the problem
/// (it is what the sampled sweep converges to as `samples_per_point`
/// grows); use [`qaoa_sweep`] to reproduce the paper's sampled workflow.
pub fn qaoa_energy_landscape<S, F>(
    graph: &Graph,
    circuit: &Circuit,
    make_simulator: F,
    grid: usize,
) -> Result<QaoaSweepResult, SimError>
where
    S: BglsState + Send + Sync,
    F: Fn() -> Simulator<S>,
{
    assert!(grid >= 1);
    let hamiltonian = maxcut_hamiltonian(graph);
    let (points, resolvers) = qaoa_grid_resolvers(grid);
    let energies = make_simulator().expectation_sweep(circuit, &resolvers, &hamiltonian)?;
    let mut sweep = Vec::with_capacity(points.len());
    let mut best = (0.0f64, 0.0f64, f64::NEG_INFINITY);
    for (&(gamma, beta), &energy) in points.iter().zip(&energies) {
        sweep.push((gamma, beta, energy));
        if energy > best.2 {
            best = (gamma, beta, energy);
        }
    }
    Ok(QaoaSweepResult {
        best_params: (best.0, best.1),
        best_mean_cut: best.2,
        sweep,
    })
}

/// The full paper workflow (Sec. 4.4) on a runtime-selected backend:
/// sweep -> rerun best parameters with `final_samples` -> return the
/// best-cut bitstring as the MaxCut solution.
///
/// Any [`BackendKind`] works as long as it supports the QAOA gate set
/// (`H`, `Rzz`, `Rx`); the paper's configuration is
/// `BackendKind::ChainMps { chi: Some(max_bond) }`.
///
/// Runs on the batched hot path: candidate probabilities go through the
/// backend's `probabilities_batch` (environment sharing on the MPS), and
/// the optimizer's single-qubit merge pass merges each vertex's `H`/`Rx`
/// runs before sampling. Every backend this pipeline accepts consumes
/// arbitrary `U1` matrices, so fusion is always safe here.
pub fn solve_maxcut_qaoa(
    graph: &Graph,
    backend: BackendKind,
    grid: usize,
    samples_per_point: u64,
    final_samples: u64,
    seed: u64,
) -> Result<QaoaSolution, SimError> {
    let n = graph.num_vertices();
    let circuit = qaoa_maxcut_circuit(graph, 1);
    let options = SimulatorOptions {
        seed: Some(seed),
        optimize: Some(OptimizeConfig {
            merge_single_qubit_runs: true,
            ..OptimizeConfig::off()
        }),
        ..Default::default()
    };
    let make = || Simulator::new(AnyState::zero(backend, n)).with_options(options.clone());
    let sweep = qaoa_sweep(graph, &circuit, make, grid, samples_per_point)?;
    let bound = resolve_qaoa(&circuit, &[sweep.best_params.0], &[sweep.best_params.1]);
    let samples = make().sample_final_bitstrings(&bound, final_samples)?;
    let (partition, cut) = samples
        .into_iter()
        .map(|b| (b, cut_value(graph, b)))
        .max_by_key(|&(_, c)| c)
        .expect("final_samples > 0");
    Ok(QaoaSolution {
        sweep,
        partition,
        cut,
    })
}

/// The paper's concrete configuration: [`solve_maxcut_qaoa`] on a chain
/// MPS with bond cap `max_bond`.
pub fn solve_maxcut_qaoa_mps(
    graph: &Graph,
    max_bond: usize,
    grid: usize,
    samples_per_point: u64,
    final_samples: u64,
    seed: u64,
) -> Result<QaoaSolution, SimError> {
    solve_maxcut_qaoa(
        graph,
        BackendKind::ChainMps {
            chi: Some(max_bond),
        },
        grid,
        samples_per_point,
        final_samples,
        seed,
    )
}

/// Planner-driven variant of [`solve_maxcut_qaoa`]: instead of the
/// caller naming a backend, a representative bound circuit (the grid's
/// interior point — the planner only reads structure, which is
/// identical at every grid point) is profiled by [`bgls_plan::plan`]
/// and the sweep runs on whatever backend it routes to. Returns the
/// solution together with the plan so callers can inspect the routing
/// rationale.
pub fn solve_maxcut_qaoa_auto(
    graph: &Graph,
    grid: usize,
    samples_per_point: u64,
    final_samples: u64,
    seed: u64,
) -> Result<(QaoaSolution, bgls_plan::ExecutionPlan), SimError> {
    let n = graph.num_vertices();
    let circuit = qaoa_maxcut_circuit(graph, 1);
    let mut probe = resolve_qaoa(&circuit, &[0.5], &[0.5]);
    probe.push(Operation::measure(Qubit::range(n), "m").expect("n >= 1"));
    let plan = bgls_plan::plan(
        &probe,
        &bgls_plan::Deliverable::Histogram {
            repetitions: samples_per_point,
        },
        &bgls_plan::PlannerConfig::default(),
    )?;
    let solution = solve_maxcut_qaoa(
        graph,
        plan.backend,
        grid,
        samples_per_point,
        final_samples,
        seed,
    )?;
    Ok((solution, plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxcut::brute_force_maxcut;
    use bgls_statevector::StateVector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn circuit_structure_is_h_cost_mixer() {
        let g = Graph::new(3, [(0, 1), (1, 2)]);
        let c = qaoa_maxcut_circuit(&g, 1);
        // 3 H + 2 Rzz + 3 Rx
        assert_eq!(c.num_operations(), 8);
        assert!(c.is_parameterized());
        let bound = resolve_qaoa(&c, &[0.7], &[0.3]);
        assert!(!bound.is_parameterized());
    }

    #[test]
    fn zero_angles_give_uniform_distribution() {
        let g = Graph::new(2, [(0, 1)]);
        let c = qaoa_maxcut_circuit(&g, 1);
        let bound = resolve_qaoa(&c, &[0.0], &[0.0]);
        let sv = StateVector::from_circuit(&bound, 2).unwrap();
        for p in sv.born_distribution() {
            assert!((p - 0.25).abs() < 1e-10);
        }
    }

    #[test]
    fn qaoa_beats_random_on_single_edge() {
        // On K2, optimal 1-layer QAOA solves MaxCut exactly:
        // gamma = pi/2, beta = pi/8 gives cut expectation 1.
        let g = Graph::new(2, [(0, 1)]);
        let c = qaoa_maxcut_circuit(&g, 1);
        let bound = resolve_qaoa(
            &c,
            &[std::f64::consts::FRAC_PI_2],
            &[std::f64::consts::PI / 8.0],
        );
        let sv = StateVector::from_circuit(&bound, 2).unwrap();
        let p = sv.born_distribution();
        // cut-1 outcomes are 01 and 10
        let cut_mass = p[1] + p[2];
        assert!(cut_mass > 0.99, "cut probability {cut_mass}");
    }

    #[test]
    fn sweep_finds_good_parameters_on_path() {
        let g = Graph::new(3, [(0, 1), (1, 2)]);
        let c = qaoa_maxcut_circuit(&g, 1);
        let make = || Simulator::new(StateVector::zero(3)).with_seed(5);
        let result = qaoa_sweep(&g, &c, make, 6, 200).unwrap();
        assert_eq!(result.sweep.len(), 36);
        // random guessing gives mean cut 1.0; QAOA should beat it
        assert!(
            result.best_mean_cut > 1.2,
            "best mean cut {}",
            result.best_mean_cut
        );
    }

    #[test]
    fn exact_landscape_agrees_with_sampled_sweep() {
        let g = Graph::new(3, [(0, 1), (1, 2)]);
        let c = qaoa_maxcut_circuit(&g, 1);
        let exact =
            qaoa_energy_landscape(&g, &c, || Simulator::new(StateVector::zero(3)), 4).unwrap();
        assert_eq!(exact.sweep.len(), 16);
        // the sampled sweep converges to the exact landscape pointwise
        let sampled = qaoa_sweep(
            &g,
            &c,
            || Simulator::new(StateVector::zero(3)).with_seed(3),
            4,
            4000,
        )
        .unwrap();
        for ((ge, be, ee), (gs, bs, es)) in exact.sweep.iter().zip(&sampled.sweep) {
            assert_eq!((ge, be), (gs, bs));
            assert!(
                (ee - es).abs() < 0.08,
                "({ge}, {be}): exact {ee} vs sampled {es}"
            );
        }
        // exact landscape at zero angles is the uniform mean cut |E|/2
        let zero = resolve_qaoa(&c, &[0.0], &[0.0]);
        let e0 = Simulator::new(StateVector::zero(3))
            .expectation_value(&zero, &crate::observables::maxcut_hamiltonian(&g))
            .unwrap();
        assert!((e0 - 1.0).abs() < 1e-10);
    }

    #[test]
    fn exact_landscape_is_backend_agnostic() {
        use bgls_backend::simulator_for;
        let g = Graph::new(4, [(0, 1), (1, 2), (2, 3)]);
        let c = qaoa_maxcut_circuit(&g, 1);
        let reference =
            qaoa_energy_landscape(&g, &c, || Simulator::new(StateVector::zero(4)), 3).unwrap();
        for kind in [
            BackendKind::DensityMatrix,
            BackendKind::ChainMps { chi: None },
            BackendKind::LazyNetwork,
        ] {
            let land = qaoa_energy_landscape(&g, &c, || simulator_for(kind, 4), 3).unwrap();
            for (a, b) in reference.sweep.iter().zip(&land.sweep) {
                assert!((a.2 - b.2).abs() < 1e-10, "{kind} at ({}, {})", a.0, a.1);
            }
        }
    }

    #[test]
    fn auto_pipeline_routes_and_solves() {
        let g = Graph::new(4, [(0, 1), (1, 2), (2, 3)]);
        let (_, optimal) = brute_force_maxcut(&g);
        let (sol, plan) = solve_maxcut_qaoa_auto(&g, 5, 60, 300, 7).unwrap();
        // Narrow unitary non-Clifford circuit: dense statevector wins
        // the planner's cost model.
        assert_eq!(plan.backend, BackendKind::StateVector);
        assert_eq!(cut_value(&g, sol.partition), sol.cut);
        assert!(
            sol.cut + 1 >= optimal,
            "QAOA cut {} vs optimal {optimal}",
            sol.cut
        );
    }

    #[test]
    fn full_pipeline_solves_small_er_graph() {
        let mut rng = StdRng::seed_from_u64(33);
        let g = Graph::erdos_renyi(6, 0.4, &mut rng);
        let (_, optimal) = brute_force_maxcut(&g);
        let sol = solve_maxcut_qaoa_mps(&g, 8, 5, 60, 300, 7).unwrap();
        assert_eq!(cut_value(&g, sol.partition), sol.cut);
        // the best sampled bitstring should be at or near optimal
        assert!(
            sol.cut + 1 >= optimal,
            "QAOA cut {} vs optimal {optimal}",
            sol.cut
        );
    }

    #[test]
    fn generic_pipeline_accepts_runtime_backends() {
        let mut rng = StdRng::seed_from_u64(44);
        let g = Graph::erdos_renyi(5, 0.5, &mut rng);
        let (_, optimal) = brute_force_maxcut(&g);
        for backend in [
            BackendKind::StateVector,
            BackendKind::ChainMps { chi: Some(8) },
            BackendKind::LazyNetwork,
        ] {
            let sol = solve_maxcut_qaoa(&g, backend, 4, 50, 200, 9).unwrap();
            assert_eq!(cut_value(&g, sol.partition), sol.cut, "{backend}");
            assert!(
                sol.cut + 1 >= optimal,
                "{backend}: QAOA cut {} vs optimal {optimal}",
                sol.cut
            );
        }
    }
}
