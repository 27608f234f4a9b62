//! Property: deterministic merge gives every replica's worker `t_i` the
//! exact same command sequence, for arbitrary traffic patterns — the
//! invariant Algorithm 1's correctness argument (§IV-E) builds on.

use bytes::Bytes;
use proptest::prelude::*;
use psmr_common::ids::{GroupId, WorkerId};
use psmr_common::SystemConfig;
use psmr_multicast::{Destinations, MergedStream, MulticastSystem};

/// One client action in the generated schedule.
#[derive(Debug, Clone)]
enum Action {
    /// Independent command to worker group `g`.
    One(usize),
    /// Dependent command to every group (via `g_all`).
    All,
}

fn action_strategy(mpl: usize) -> impl Strategy<Value = Action> {
    prop_oneof![
        3 => (0..mpl).prop_map(Action::One),
        1 => Just(Action::All),
    ]
}

fn take(stream: &mut MergedStream, n: usize) -> Vec<(GroupId, u64, usize, u32)> {
    (0..n)
        .map(|_| {
            let d = stream.next().expect("delivered");
            let v = u32::from_le_bytes(d.payload[..4].try_into().expect("4-byte payload"));
            (d.group, d.batch_seq, d.offset, v)
        })
        .collect()
}

proptest! {
    // End-to-end runs spawn real threads; keep the case count modest.
    #![proptest_config(ProptestConfig {
        cases: 12, max_shrink_iters: 20
    })]

    #[test]
    fn replicas_see_identical_merged_sequences(
        actions in prop::collection::vec(action_strategy(3), 1..60),
    ) {
        let mpl = 3;
        let cfg = SystemConfig::new(mpl);
        let system = MulticastSystem::spawn(&cfg);
        let handle = system.handle();
        // Two "replicas": two independent subscriptions per worker.
        let mut replica_a: Vec<MergedStream> =
            (0..mpl).map(|i| system.worker_stream(WorkerId::new(i))).collect();
        let mut replica_b: Vec<MergedStream> =
            (0..mpl).map(|i| system.worker_stream(WorkerId::new(i))).collect();
        system.start();

        // Expected command count per worker: its own singles + every All.
        let mut expect = vec![0usize; mpl];
        for (i, action) in actions.iter().enumerate() {
            let payload = Bytes::from((i as u32).to_le_bytes().to_vec());
            match action {
                Action::One(g) => {
                    handle.multicast(&Destinations::one(GroupId::new(*g)), payload);
                    expect[*g] += 1;
                }
                Action::All => {
                    handle.multicast(&Destinations::all(mpl), payload);
                    for e in expect.iter_mut() {
                        *e += 1;
                    }
                }
            }
        }

        for (w, want) in expect.iter().enumerate() {
            let got_a = take(&mut replica_a[w], *want);
            let got_b = take(&mut replica_b[w], *want);
            prop_assert_eq!(&got_a, &got_b, "worker {} diverged across replicas", w);
            // Same-group commands keep submission order.
            let per_group_vals: Vec<u32> = got_a
                .iter()
                .filter(|(g, ..)| *g == GroupId::new(w))
                .map(|&(.., v)| v)
                .collect();
            let mut sorted = per_group_vals.clone();
            sorted.sort_unstable();
            prop_assert_eq!(per_group_vals, sorted, "worker {} lost FIFO order", w);
        }

        system.shutdown();
    }
}

/// Deterministic (non-proptest) variant asserting the cross-worker relative
/// order of dependent commands.
#[test]
fn dependent_commands_order_identically_at_every_worker() {
    let mpl = 4;
    let cfg = SystemConfig::new(mpl);
    let system = MulticastSystem::spawn(&cfg);
    let handle = system.handle();
    let mut workers: Vec<MergedStream> = (0..mpl)
        .map(|i| system.worker_stream(WorkerId::new(i)))
        .collect();
    system.start();

    let total_all = 40u32;
    for i in 0..total_all {
        handle.multicast(
            &Destinations::all(mpl),
            Bytes::from(i.to_le_bytes().to_vec()),
        );
        // Sprinkle singles between the dependent commands.
        handle.multicast(
            &Destinations::one(GroupId::new((i as usize) % mpl)),
            Bytes::from((1000 + i).to_le_bytes().to_vec()),
        );
    }

    let gall = cfg.all_group();
    let mut reference: Option<Vec<u32>> = None;
    for (w, stream) in workers.iter_mut().enumerate() {
        let want = total_all as usize + (total_all as usize / mpl);
        let seq = take(stream, want);
        let alls: Vec<u32> = seq
            .iter()
            .filter(|(g, ..)| *g == gall)
            .map(|&(.., v)| v)
            .collect();
        assert_eq!(
            alls.len(),
            total_all as usize,
            "worker {w} missed g_all traffic"
        );
        match &reference {
            None => reference = Some(alls),
            Some(r) => assert_eq!(&alls, r, "worker {w} ordered g_all differently"),
        }
    }
    system.shutdown();
}
