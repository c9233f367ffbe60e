//! Seeded traffic: the circuit classes, the QAOA ansatz, and the three
//! request streams. Everything here is a pure function of `--seed`; the
//! service only ever sees the generated requests.

use bgls_apps::{brickwork_circuit, maxcut_hamiltonian, qaoa_maxcut_circuit, Graph};
use bgls_circuit::{
    generate_random_circuit, Channel, Circuit, Gate, Operation, ParamResolver, PauliSum, Qubit,
    RandomCircuitParams,
};
use bgls_plan::{Deliverable, SimRequest};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Seed of the circuit corpus. Fixed: with circuit costs varying by a
/// factor of two between random instances of a class, a corpus drawn
/// from `--seed` would move throughput by about 10% from seed to seed.
const CORPUS_SEED: u64 = 0x6267_6c73_636f_7270;
/// Distinct seeded circuit instances per `sample_mix` class.
pub const POOL: usize = 4;
/// `(circuit, seed)` pairs in the `hot_replay` hot set (fits the default
/// 1024-entry result cache many times over).
pub const HOT_PAIRS: usize = 48;
/// Share of `hot_replay` requests drawn from the hot set.
pub const HOT_SHARE: f64 = 0.95;
/// Seeded MaxCut graphs the `qaoa_sweep` steps rotate over.
pub const QAOA_GRAPHS: usize = 3;
/// QAOA ansatz width.
pub const QAOA_QUBITS: usize = 14;
/// Parameter bindings per `qaoa_sweep` grid step.
pub const GRID: usize = 16;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SampleMix,
    HotReplay,
    QaoaSweep,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "sample_mix" => Some(Workload::SampleMix),
            "hot_replay" => Some(Workload::HotReplay),
            "qaoa_sweep" => Some(Workload::QaoaSweep),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SampleMix => "sample_mix",
            Workload::HotReplay => "hot_replay",
            Workload::QaoaSweep => "qaoa_sweep",
        }
    }

    /// How long the client waits for one ticket before counting it lost.
    /// `sample_mix` replies have a long tail: 2.07 s was the slowest of
    /// 5,600 on a calm host, with a median of 0.12 s, so its limit is far
    /// above that tail and a reply slowed by host steal is still a reply;
    /// `qaoa_sweep`'s slowest was 0.15 s. A ticket whose result the
    /// service dropped never resolves, at any limit. `hot_replay` keeps a
    /// short limit because it loses tickets on every run.
    pub fn wait_limit_ms(self) -> u64 {
        match self {
            Workload::SampleMix => 30_000,
            Workload::QaoaSweep => 2000,
            Workload::HotReplay => 1000,
        }
    }

    /// Tickets the closed-loop client keeps in flight.
    pub fn window(self) -> usize {
        match self {
            Workload::SampleMix => 4,
            Workload::HotReplay => 8,
            Workload::QaoaSweep => GRID,
        }
    }
}

/// One `sample_mix` circuit class: a name, a shot count, and a pool of
/// distinct seeded instances.
pub struct Class {
    pub name: &'static str,
    pub reps: u64,
    pub pool: Vec<Circuit>,
}

/// A MaxCut QAOA ansatz (symbolic `gamma0`/`beta0`) with its observable.
pub struct Qaoa {
    pub base: Circuit,
    pub observable: PauliSum,
}

/// One request of a stream, small enough to keep for every job.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Job {
    /// Histogram of `classes[class].pool[inst]` under `seed`.
    Sample {
        class: usize,
        inst: usize,
        seed: u64,
    },
    /// Exact expectation of `qaoa[graph]` at `(gamma, beta)`.
    Expect { graph: usize, gamma: f64, beta: f64 },
}

/// All circuits a run needs, generated once from the seed.
pub struct Traffic {
    pub classes: Vec<Class>,
    pub qaoa: Vec<Qaoa>,
    /// `hot_replay`'s hot set.
    pub hot: Vec<Job>,
}

fn measured(mut c: Circuit, n: usize) -> Circuit {
    let all: Vec<Qubit> = (0..n as u32).map(Qubit).collect();
    c.push(Operation::measure(all, "m").expect("distinct qubits"));
    c
}

/// Brickwork of random single-qubit gates and staggered CZ bricks with
/// `channel` on every qubit after every layer.
fn noisy_brickwork(n: usize, layers: usize, channel: &Channel, rng: &mut StdRng) -> Circuit {
    let one_q = [Gate::SqrtX, Gate::T, Gate::H, Gate::S];
    let mut c = Circuit::new();
    for layer in 0..layers {
        for q in 0..n {
            let g = one_q.choose(rng).expect("nonempty").clone();
            c.push(Operation::gate(g, vec![Qubit(q as u32)]).expect("1q"));
        }
        let mut q = layer % 2;
        while q + 1 < n {
            let pair = vec![Qubit(q as u32), Qubit(q as u32 + 1)];
            c.push(Operation::gate(Gate::Cz, pair).expect("2q"));
            q += 2;
        }
        for q in 0..n {
            let op = Operation::channel(channel.clone(), vec![Qubit(q as u32)]);
            c.push(op.expect("1q channel"));
        }
    }
    c
}

fn clifford(rng: &mut StdRng) -> Circuit {
    measured(
        generate_random_circuit(&RandomCircuitParams::clifford(20, 12), rng),
        20,
    )
}

fn midcircuit(rng: &mut StdRng) -> Circuit {
    let mut c = generate_random_circuit(&RandomCircuitParams::clifford(16, 3), rng);
    c.push(Operation::measure(vec![Qubit(0)], "early").expect("1q"));
    // reuse the measured qubit so the measurement is mid-circuit
    c.push(Operation::gate(Gate::H, vec![Qubit(0)]).expect("1q"));
    c.extend_circuit(&generate_random_circuit(
        &RandomCircuitParams::clifford(16, 8),
        rng,
    ));
    measured(c, 16)
}

fn forest(rng: &mut StdRng) -> Circuit {
    let mut c = brickwork_circuit(14, 10, rng);
    // four sparse bit flips: few enough forks for the forest budget
    for _ in 0..4 {
        let q = rng.gen_range(0..14u32);
        let flip = Channel::bit_flip(0.05).expect("valid probability");
        c.push(Operation::channel(flip, vec![Qubit(q)]).expect("1q channel"));
        let more = brickwork_circuit(14, 1, rng);
        c.extend_circuit(&more);
    }
    measured(c, 14)
}

/// The eight `sample_mix` classes, each with [`POOL`] seeded instances.
fn classes(rng: &mut StdRng) -> Vec<Class> {
    let depol = Channel::depolarizing(0.01).expect("valid probability");
    let mut out = Vec::new();
    let mut class = |name, reps, make: &mut dyn FnMut(&mut StdRng) -> Circuit| {
        let pool = (0..POOL).map(|_| make(rng)).collect();
        out.push(Class { name, reps, pool });
    };
    class("clifford", 200, &mut clifford);
    class("midcircuit", 16, &mut midcircuit);
    class("dense", 1000, &mut |r| {
        measured(brickwork_circuit(16, 8, r), 16)
    });
    class("noisy_narrow", 1000, &mut |r| {
        measured(noisy_brickwork(8, 2, &depol, r), 8)
    });
    class("noisy_wide", 200, &mut |r| {
        measured(noisy_brickwork(14, 2, &depol, r), 14)
    });
    class("forest", 500, &mut forest);
    class("mps_wide", 500, &mut |r| {
        measured(brickwork_circuit(28, 3, r), 28)
    });
    class("shallow", 1000, &mut |r| {
        measured(brickwork_circuit(20, 2, r), 20)
    });
    out
}

fn qaoa(rng: &mut StdRng) -> Vec<Qaoa> {
    (0..QAOA_GRAPHS)
        .map(|_| {
            let graph = Graph::erdos_renyi(QAOA_QUBITS, 0.3, rng);
            Qaoa {
                base: qaoa_maxcut_circuit(&graph, 1),
                observable: maxcut_hamiltonian(&graph),
            }
        })
        .collect()
}

/// A seed for a timed request: the top bit is clear, so it can never
/// collide with a warm-up seed ([`warm_seed`]).
fn fresh_seed(rng: &mut StdRng) -> u64 {
    rng.gen::<u64>() >> 1
}

/// The `i`-th warm-up seed: top bit set, disjoint from timed seeds.
fn warm_seed(i: u64) -> u64 {
    (1 << 63) | i
}

impl Traffic {
    /// Generates every circuit a run touches. The circuit corpus (the
    /// class pools and the QAOA graphs) comes from the fixed
    /// [`CORPUS_SEED`], so runs with different seeds measure the same
    /// circuits; `seed` drives everything the requests carry (the hot
    /// set here, instance choice, shot seeds and bindings in [`Stream`]).
    /// The sampling classes are always generated: the traced run probes
    /// them on every workload.
    pub fn generate(seed: u64) -> Traffic {
        let mut corpus = StdRng::seed_from_u64(CORPUS_SEED);
        let classes = classes(&mut corpus);
        let qaoa = qaoa(&mut corpus);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x686f_7473_6574);
        let hot = (0..HOT_PAIRS)
            .map(|i| Job::Sample {
                class: i % classes.len(),
                inst: rng.gen_range(0..POOL),
                seed: fresh_seed(&mut rng),
            })
            .collect();
        Traffic { classes, qaoa, hot }
    }

    /// The service request for `job`.
    pub fn request(&self, job: &Job) -> SimRequest {
        match *job {
            Job::Sample { class, inst, seed } => {
                let c = &self.classes[class];
                SimRequest::histogram(c.pool[inst].clone(), c.reps).with_seed(seed)
            }
            Job::Expect { graph, gamma, beta } => {
                let q = &self.qaoa[graph];
                SimRequest {
                    circuit: q.base.clone(),
                    resolver: Some(binding(gamma, beta)),
                    deliverable: Deliverable::Expectation {
                        observable: q.observable.clone(),
                    },
                    seed: None,
                    deadline_ms: None,
                }
            }
        }
    }

    /// The circuit `job` executes, parameters resolved, with its
    /// deliverable: what a standalone `plan()` of the job takes.
    pub fn resolved(&self, job: &Job) -> (Circuit, Deliverable) {
        match *job {
            Job::Sample { class, inst, .. } => {
                let c = &self.classes[class];
                let repetitions = c.reps;
                (c.pool[inst].clone(), Deliverable::Histogram { repetitions })
            }
            Job::Expect { graph, gamma, beta } => {
                let q = &self.qaoa[graph];
                let observable = q.observable.clone();
                (
                    q.base.resolve(&binding(gamma, beta)),
                    Deliverable::Expectation { observable },
                )
            }
        }
    }

    /// Human-readable class label of a job.
    pub fn label(&self, job: &Job) -> &'static str {
        match *job {
            Job::Sample { class, .. } => self.classes[class].name,
            Job::Expect { .. } => "qaoa",
        }
    }
}

/// The resolver binding one QAOA layer.
pub fn binding(gamma: f64, beta: f64) -> ParamResolver {
    ParamResolver::from_pairs([("gamma0", gamma), ("beta0", beta)])
}

/// A fresh QAOA grid point.
pub fn fresh_binding(rng: &mut StdRng) -> (f64, f64) {
    (
        rng.gen_range(0.0..std::f64::consts::PI),
        rng.gen_range(0.0..std::f64::consts::FRAC_PI_2),
    )
}

/// The timed request stream of a workload: an endless, seeded sequence
/// of jobs, handed out in grid steps for `qaoa_sweep` and one at a time
/// otherwise.
pub struct Stream {
    workload: Workload,
    rng: StdRng,
    issued: u64,
    step: usize,
    hot: Vec<Job>,
    classes: usize,
}

impl Stream {
    pub fn new(workload: Workload, seed: u64, traffic: &Traffic) -> Stream {
        Stream {
            workload,
            rng: StdRng::seed_from_u64(seed ^ 0x7374_7265_616d_0001),
            issued: 0,
            step: 0,
            hot: traffic.hot.clone(),
            classes: traffic.classes.len(),
        }
    }

    fn sample(&mut self, class: usize) -> Job {
        Job::Sample {
            class,
            inst: self.rng.gen_range(0..POOL),
            seed: fresh_seed(&mut self.rng),
        }
    }

    /// The next single job (`sample_mix`, `hot_replay`).
    fn next_job(&mut self) -> Job {
        let i = self.issued;
        self.issued += 1;
        match self.workload {
            Workload::SampleMix => self.sample(i as usize % self.classes),
            Workload::HotReplay => {
                if self.rng.gen_bool(HOT_SHARE) {
                    self.hot[self.rng.gen_range(0..self.hot.len())]
                } else {
                    let class = self.rng.gen_range(0..self.classes);
                    self.sample(class)
                }
            }
            Workload::QaoaSweep => unreachable!("qaoa_sweep issues whole grid steps"),
        }
    }

    /// The next grid step (`qaoa_sweep`): [`GRID`] fresh bindings of one
    /// graph, rotating over the graphs.
    fn next_step(&mut self) -> Vec<Job> {
        let graph = self.step % QAOA_GRAPHS;
        self.step += 1;
        (0..GRID)
            .map(|_| {
                let (gamma, beta) = fresh_binding(&mut self.rng);
                Job::Expect { graph, gamma, beta }
            })
            .collect()
    }

    /// The next batch of jobs the closed loop may have in flight at once.
    pub fn next_batch(&mut self) -> Vec<Job> {
        match self.workload {
            Workload::QaoaSweep => self.next_step(),
            _ => vec![self.next_job()],
        }
    }
}

/// The untimed warm-up pass: every distinct circuit of the workload, with
/// seeds and bindings disjoint from the timed stream, in units the client
/// submits and waits for one at a time (so each unit is its own batch and
/// every `(backend, path)` bucket of the cost model sees several
/// observations). `hot_replay` also fills its hot set.
pub fn warmup(workload: Workload, traffic: &Traffic) -> Vec<Vec<Job>> {
    let mut units = Vec::new();
    let mut n = 0u64;
    match workload {
        Workload::SampleMix | Workload::HotReplay => {
            for inst in 0..POOL {
                for class in 0..traffic.classes.len() {
                    n += 1;
                    units.push(vec![Job::Sample {
                        class,
                        inst,
                        seed: warm_seed(n),
                    }]);
                }
            }
            if workload == Workload::HotReplay {
                units.extend(traffic.hot.iter().map(|j| vec![*j]));
            }
        }
        Workload::QaoaSweep => {
            // Bindings drawn from their own stream, never the timed one.
            // enough grid steps for the batch controller to settle
            let mut rng = StdRng::seed_from_u64(0x7761_726d_7570);
            for _ in 0..8 {
                for graph in 0..QAOA_GRAPHS {
                    units.push(
                        (0..GRID)
                            .map(|_| {
                                let (gamma, beta) = fresh_binding(&mut rng);
                                Job::Expect { graph, gamma, beta }
                            })
                            .collect(),
                    );
                }
            }
        }
    }
    units
}
