//! Seeded inputs: the types and systems each workload hands to the crates.
//!
//! Every pass is built from fixed strata (so two seeds give passes of the
//! same shape and cost profile) whose members the seed picks: family
//! parameters, random tables, random programs, inputs, budgets and the
//! assignment of fault models to items.

use crate::seams::CountingType;
use rcn_decide::synthesis::random_readable_table;
use rcn_faults::CrashtestConfig;
use rcn_model::{Action, FaultModel, HeapLayout, LocalState, ObjectId, ProcessId, Program, System};
use rcn_protocols::{TasConsensus, TnnRecoverable, TnnWaitFree, TournamentConsensus};
use rcn_spec::zoo::{
    BoundedQueue, BoundedStack, CompareAndSwap, ConsensusObject, FetchAndAdd, Register, StickyBit,
    TeamCounter, Tnn, WithRead,
};
use rcn_spec::{ObjectType, OpId, Response, ValueId};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

pub type DynType = Arc<dyn ObjectType + Send + Sync>;

/// SplitMix64: a small, fully specified generator, so the item mix of a
/// seed never depends on a library's sampling algorithm.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0, i));
        }
    }
}

/// What the oracle expects of a classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Exact discerning and recording levels (neither capped).
    Levels { discerning: usize, recording: usize },
    /// Both conditions still hold at the cap (types at the top of both
    /// hierarchies).
    AtCap,
    /// A random table: nothing is pinned, every witness must check out.
    Witnesses,
}

pub struct ClassifyItem {
    pub label: String,
    pub ty: DynType,
    pub cap: usize,
    pub expect: Expect,
}

impl ClassifyItem {
    pub fn is_zoo(&self) -> bool {
        self.expect != Expect::Witnesses
    }
}

/// Where a crash-search system comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// A protocol shipped in `rcn-protocols`; `correct` when it solves
    /// recoverable consensus for its process count by construction.
    Shipped { correct: bool },
    /// A seeded random register program.
    Random,
}

pub struct CrashItem {
    pub label: String,
    pub system: System,
    pub config: CrashtestConfig,
    pub origin: Origin,
}

impl CrashItem {
    pub fn is_shipped(&self) -> bool {
        matches!(self.origin, Origin::Shipped { .. })
    }
}

/// Wraps generated types in the counting adapter when `calls` is set.
#[derive(Clone)]
pub struct Wrap(pub Option<Arc<AtomicU64>>);

impl Wrap {
    fn ty(&self, ty: DynType) -> DynType {
        match &self.0 {
            Some(calls) => Arc::new(CountingType::new(ty, calls.clone())),
            None => ty,
        }
    }
}

const MODELS: [FaultModel; 4] = [
    FaultModel::PER_PROCESS,
    FaultModel::SYSTEM,
    FaultModel::MID_OP,
    FaultModel::ALL,
];

fn classify_item(
    wrap: &Wrap,
    label: String,
    ty: DynType,
    cap: usize,
    expect: Expect,
) -> ClassifyItem {
    ClassifyItem {
        label,
        ty: wrap.ty(ty),
        cap,
        expect,
    }
}

/// `tnn:n,n'` at cap `n + 1`: `n`-discerning and `(n-1)`-recording for
/// every `n'` (Lemma 15; pinned in `tests/hierarchy_separations.rs`).
fn tnn(wrap: &Wrap, n: usize, n_prime: usize) -> ClassifyItem {
    classify_item(
        wrap,
        format!("tnn:{n},{n_prime}"),
        Arc::new(Tnn::new(n, n_prime)),
        n + 1,
        Expect::Levels {
            discerning: n,
            recording: n - 1,
        },
    )
}

/// `team-counter:N` at cap `N + 1`: CN `N`, RCN `max(N-1, 1)`.
fn team_counter(wrap: &Wrap, n: usize) -> ClassifyItem {
    classify_item(
        wrap,
        format!("team-counter:{n}"),
        Arc::new(TeamCounter::new(n)),
        n + 1,
        Expect::Levels {
            discerning: n,
            recording: (n - 1).max(1),
        },
    )
}

fn cas(wrap: &Wrap, domain: usize, cap: usize) -> ClassifyItem {
    classify_item(
        wrap,
        format!("cas:{domain} cap {cap}"),
        Arc::new(CompareAndSwap::new(domain)),
        cap,
        Expect::AtCap,
    )
}

fn xn4(wrap: &Wrap) -> ClassifyItem {
    let x4 = rcn_core::shipped_xn(4).expect("X_4 ships with rcn-core");
    classify_item(
        wrap,
        "xn:4".into(),
        Arc::new(x4),
        5,
        Expect::Levels {
            discerning: 4,
            recording: 2,
        },
    )
}

/// Light zoo item `family` (0..8): each costs well under a millisecond.
fn light(wrap: &Wrap, rng: &mut Rng, family: usize) -> ClassifyItem {
    match family {
        0 => {
            let m = rng.range(3, 8);
            let cap = rng.range(3, 4);
            classify_item(
                wrap,
                format!("faa:{m} cap {cap}"),
                Arc::new(FetchAndAdd::new(m)),
                cap,
                Expect::Levels {
                    discerning: 2,
                    recording: 1,
                },
            )
        }
        1 => {
            let cap = rng.range(3, 6);
            classify_item(
                wrap,
                format!("sticky cap {cap}"),
                Arc::new(StickyBit::new()),
                cap,
                Expect::AtCap,
            )
        }
        2 => {
            let cap = rng.range(3, 6);
            classify_item(
                wrap,
                format!("consensus cap {cap}"),
                Arc::new(ConsensusObject::new()),
                cap,
                Expect::AtCap,
            )
        }
        3 => {
            let cap = rng.range(3, 5);
            classify_item(
                wrap,
                format!("queue:2,2+read cap {cap}"),
                Arc::new(WithRead::new(BoundedQueue::new(2, 2))),
                cap,
                Expect::AtCap,
            )
        }
        4 => {
            let cap = rng.range(3, 5);
            classify_item(
                wrap,
                format!("stack:2,2+read cap {cap}"),
                Arc::new(WithRead::new(BoundedStack::new(2, 2))),
                cap,
                Expect::AtCap,
            )
        }
        5 => {
            let n = rng.range(2, 3);
            tnn(wrap, n, rng.range(1, n - 1))
        }
        6 => team_counter(wrap, rng.range(2, 3)),
        _ => cas(wrap, 3, 3),
    }
}

/// The `classify` pass of 310 items: 256 random tables, 16 light, 10 mid
/// (~3 ms), 26 heavy (~7 ms) and 2 very heavy (~25 ms) zoo items, in
/// seeded order. The heavy stratum holds the 95th percentile.
pub fn classify_items(seed: u64, wrap: &Wrap) -> Vec<ClassifyItem> {
    let mut rng = Rng::new(seed ^ 0xC1A5_51F1);
    let mut tables = rcn_decide::synthesis::rng(rng.next_u64());
    let mut items = Vec::new();
    for values in 2..=5 {
        for mutators in 1..=4 {
            for k in 0..16 {
                let table = random_readable_table(&mut tables, values, mutators);
                items.push(classify_item(
                    wrap,
                    format!("random v={values} m={mutators} #{k}"),
                    Arc::new(table),
                    4,
                    Expect::Witnesses,
                ));
            }
        }
    }
    // Fixed counts per family; the seed draws parameters and order.
    for family in 0..16 {
        items.push(light(wrap, &mut rng, family % 8));
    }
    for _ in 0..4 {
        items.push(tnn(wrap, 4, rng.range(1, 3)));
    }
    for _ in 0..3 {
        items.push(team_counter(wrap, 4));
        items.push(xn4(wrap));
    }
    for _ in 0..16 {
        items.push(tnn(wrap, 5, rng.range(1, 4)));
    }
    for _ in 0..4 {
        items.push(team_counter(wrap, 5));
    }
    for _ in 0..3 {
        items.push(cas(wrap, 3, 5));
        items.push(cas(wrap, 4, 4));
    }
    items.push(tnn(wrap, 6, rng.range(1, 5)));
    items.push(team_counter(wrap, 6));
    rng.shuffle(&mut items);
    items
}

/// A random table-driven program over one shared register: states `0..s`
/// invoke an op and branch on the response, states `s` and `s + 1` output
/// 0 and 1 (the shape of `arb_program` in `tests/explorer_parallel.rs`).
#[derive(Debug, Clone)]
struct RandomProgram {
    reg: ObjectId,
    active_states: usize,
    op: Vec<u16>,
    next: Vec<Vec<u32>>,
    start: [u32; 2],
}

impl Program for RandomProgram {
    fn name(&self) -> String {
        "random-program".into()
    }

    fn initial_state(&self, _pid: ProcessId, input: u32) -> LocalState {
        LocalState::word1(self.start[input as usize])
    }

    fn action(&self, _pid: ProcessId, state: &LocalState) -> Action {
        let s = state.word(0) as usize;
        if s < self.active_states {
            Action::Invoke {
                object: self.reg,
                op: OpId::new(self.op[s]),
            }
        } else {
            Action::Output((s - self.active_states) as u32)
        }
    }

    fn transition(&self, _pid: ProcessId, state: &LocalState, response: Response) -> LocalState {
        LocalState::word1(self.next[state.word(0) as usize][response.index()])
    }
}

/// Start states are uniform over all states, as in `arb_program`; branch
/// targets are an output state three times in four, so most programs
/// decide within a few steps and many break agreement under crashes.
///
/// A draw whose two start states are output states with different values
/// breaks agreement before any event: there is nothing to search, and the
/// threaded runtime cannot confirm the empty counterexample (it never
/// checks initial outputs). Such a draw is redrawn for the timed mix and
/// kept in `initially_violating`, where the traced run replays it.
fn random_program(
    wrap: &Wrap,
    rng: &mut Rng,
    active_states: usize,
    initially_violating: &mut Vec<System>,
) -> System {
    let total = active_states + 2;
    let op = (0..active_states).map(|_| rng.range(0, 2) as u16).collect();
    let next = (0..total)
        .map(|_| {
            (0..3)
                .map(|_| {
                    if rng.range(0, 3) != 0 {
                        rng.range(active_states, total - 1) as u32
                    } else {
                        rng.range(0, active_states - 1) as u32
                    }
                })
                .collect()
        })
        .collect();
    let mut layout = HeapLayout::new();
    let reg = layout.add_object("R", wrap.ty(Arc::new(Register::new(2))), ValueId::new(0));
    let layout = Arc::new(layout);
    let mut program = RandomProgram {
        reg,
        active_states,
        op,
        next,
        start: [0, 0],
    };
    loop {
        program.start = [
            rng.range(0, total - 1) as u32,
            rng.range(0, total - 1) as u32,
        ];
        let system = System::new(Arc::new(program.clone()), layout.clone(), vec![0, 1]);
        let [a, b] = program.start.map(|s| s as usize);
        if a < active_states || b < active_states || a == b {
            return system;
        }
        initially_violating.push(system);
    }
}

fn config(max_crashes: usize, max_depth: usize, fault_model: FaultModel) -> CrashtestConfig {
    CrashtestConfig {
        max_crashes,
        max_depth,
        max_states: 500_000,
        fault_model,
    }
}

fn crash_item(label: String, system: System, config: CrashtestConfig, origin: Origin) -> CrashItem {
    CrashItem {
        label: format!(
            "{label} c{} d{} {}",
            config.max_crashes, config.max_depth, config.fault_model
        ),
        system,
        config,
        origin,
    }
}

fn binary_inputs(rng: &mut Rng) -> Vec<u32> {
    vec![rng.range(0, 1) as u32, rng.range(0, 1) as u32]
}

/// Two processes with different inputs, in either order.
fn mixed_inputs(rng: &mut Rng) -> Vec<u32> {
    let first = rng.range(0, 1) as u32;
    vec![first, 1 - first]
}

/// The `crashsearch` pass of 1184 items: 1024 random programs, 16 broken
/// shipped protocols, 24 light and 120 heavier correct shipped protocols
/// (the tournaments, which hold the 95th percentile). The first three
/// strata spread the fault models evenly, and the random programs their
/// budgets; the seed assigns them. Also returns the redrawn random
/// programs that violate in their initial configuration.
pub fn crash_items(seed: u64, wrap: &Wrap) -> (Vec<CrashItem>, Vec<System>) {
    let mut rng = Rng::new(seed ^ 0xC4A5_4E57);
    let mut items = Vec::new();
    let mut initially_violating = Vec::new();

    let mut models: Vec<FaultModel> = MODELS.iter().copied().cycle().take(1024).collect();
    rng.shuffle(&mut models);
    for (i, model) in models.into_iter().enumerate() {
        let active = 3 + i % 3;
        let system = random_program(wrap, &mut rng, active, &mut initially_violating);
        let budget = config(1 + i % 2, [8, 10, 12, 14][i / 2 % 4], model);
        items.push(crash_item(
            format!("random s={active}"),
            system,
            budget,
            Origin::Random,
        ));
    }

    let mut models: Vec<FaultModel> = MODELS.iter().copied().cycle().take(16).collect();
    rng.shuffle(&mut models);
    for (i, model) in models.into_iter().enumerate() {
        let inputs = mixed_inputs(&mut rng);
        let (label, system) = if i % 2 == 0 {
            (format!("tas {inputs:?}"), TasConsensus::system(inputs))
        } else {
            (
                format!("tnn-wait-free:2,1 {inputs:?}"),
                TnnWaitFree::system(2, 1, inputs),
            )
        };
        let budget = config(rng.range(1, 3), rng.range(8, 20), model);
        items.push(crash_item(
            label,
            system,
            budget,
            Origin::Shipped { correct: false },
        ));
    }

    // T_{n,n'}'s recoverable algorithm solves consensus among n' ≥ 2
    // processes (two here).
    let mut models: Vec<FaultModel> = MODELS.iter().copied().cycle().take(24).collect();
    rng.shuffle(&mut models);
    for model in models {
        let n = rng.range(4, 6);
        let n_prime = rng.range(2, n - 1);
        let inputs = binary_inputs(&mut rng);
        let label = format!("tnn-recoverable:{n},{n_prime} {inputs:?}");
        let system = TnnRecoverable::system(n, n_prime, inputs);
        let budget = config(rng.range(1, 3), rng.range(8, 20), model);
        items.push(crash_item(
            label,
            system,
            budget,
            Origin::Shipped { correct: true },
        ));
    }

    // Tournaments over readable types at the top of both hierarchies: 116
    // at (2 crashes, depth 16) under every fault model, the mid-op ones
    // most often so that they hold the 95th percentile, and four at
    // (3 crashes, depth 20).
    let counts = [
        (FaultModel::PER_PROCESS, 10),
        (FaultModel::SYSTEM, 10),
        (FaultModel::MID_OP, 80),
        (FaultModel::ALL, 16),
    ];
    let budgets = counts
        .into_iter()
        .flat_map(|(m, count)| std::iter::repeat_n(config(2, 16, m), count))
        .chain(
            [FaultModel::PER_PROCESS, FaultModel::MID_OP]
                .repeat(2)
                .into_iter()
                .map(|m| config(3, 20, m)),
        );
    for budget in budgets {
        let (name, ty): (&str, DynType) = match rng.range(0, 2) {
            0 => ("sticky", Arc::new(StickyBit::new())),
            1 => ("cas:3", Arc::new(CompareAndSwap::new(3))),
            _ => ("consensus", Arc::new(ConsensusObject::new())),
        };
        let inputs = mixed_inputs(&mut rng);
        let label = format!("tournament:{name} {inputs:?}");
        let system = TournamentConsensus::try_new(wrap.ty(ty), inputs)
            .expect("a readable type with a non-hiding witness builds a tournament");
        items.push(crash_item(
            label,
            system,
            budget,
            Origin::Shipped { correct: true },
        ));
    }

    rng.shuffle(&mut items);
    (items, initially_violating)
}
