//! Tier-1 guard for the compiled epoch plan: a trainer compiles its classic
//! epoch once and runs that plan on either backend, and the result is the
//! result of building, executing and advancing one epoch at a time through
//! the public pieces — the benchmark's `traced_equals_untraced` invariant.
//! The plan holds nothing of the epoch it was compiled in: Adam's step
//! comes from the device state's epoch counter, which `restore` sets.

use mg_gcn::core::checkpoint::Checkpoint;
use mg_gcn::dense::Dense;
use mg_gcn::exec::execute;
use mg_gcn::prelude::*;

fn graph() -> Graph {
    sbm::generate(&SbmConfig::community_benchmark(180, 3), 11)
}

fn trainer(g: &Graph, gpus: usize, op_order: bool, backend: Backend) -> Trainer {
    // Features narrower than the hidden layer, so the §4.4 op-order rule
    // has a layer to reorder when it is on.
    let cfg = GcnConfig::new(g.features.cols(), &[24, 12], g.classes);
    let mut opts = TrainOptions::quick(gpus);
    opts.op_order_opt = op_order;
    opts.backend = backend;
    let problem = Problem::from_graph(g, &cfg, &opts);
    Trainer::new(problem, cfg, opts).expect("toy problem fits")
}

fn losses(reports: &[EpochReport]) -> Vec<u64> {
    reports.iter().map(|r| r.loss.to_bits()).collect()
}

/// Weight and Adam-moment bits of every GPU replica.
fn model_bits(t: &Trainer) -> Vec<Vec<u32>> {
    let bits = |m: &Dense| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    (0..t.state().gpu_count())
        .flat_map(|g| {
            let gs = t.state().gpu(g);
            let all = gs.weights.iter().chain(&gs.adam_m).chain(&gs.adam_v);
            all.map(bits).collect::<Vec<_>>()
        })
        .collect()
}

/// One epoch the way the benchmark's traced run takes it: a fresh one-shot
/// schedule, executed, then the epoch counter advanced through the
/// checkpoint interface. Returns the loss bits.
fn one_shot_epoch(t: &mut Trainer) -> u64 {
    let sched = t.epoch_schedule();
    t.state().reset_scratch();
    execute(sched, t.state()).expect("a healthy epoch");
    let loss = t.state().total_loss().to_bits();
    let mut ck = Checkpoint::from_trainer(t);
    ck.epoch += 1;
    t.restore(&ck).expect("a trainer accepts its own checkpoint");
    loss
}

#[test]
fn threaded_simulated_and_one_shot_epochs_agree_bit_for_bit() {
    const K: usize = 4;
    let g = graph();
    for gpus in [1, 2, 4] {
        for op_order in [false, true] {
            let label = format!("P={gpus} op-order={op_order}");
            let mut sim = trainer(&g, gpus, op_order, Backend::Simulated);
            let want = losses(&sim.train(K).expect("simulated"));

            let mut thr = trainer(&g, gpus, op_order, Backend::Threaded);
            let reports = thr.train(K).expect("threaded");
            assert_eq!(losses(&reports), want, "{label}: threaded losses");
            assert_eq!(model_bits(&thr), model_bits(&sim), "{label}: threaded model");
            assert!(reports.iter().all(|r| r.measured.is_some()), "{label}: measured profile");
            let epochs: Vec<usize> = reports.iter().map(|r| r.epoch).collect();
            assert_eq!(epochs, (0..K).collect::<Vec<_>>(), "{label}: epoch numbering");

            let mut shot = trainer(&g, gpus, op_order, Backend::Threaded);
            let got: Vec<u64> = (0..K).map(|_| one_shot_epoch(&mut shot)).collect();
            assert_eq!(got, want, "{label}: one-shot losses");
            assert_eq!(model_bits(&shot), model_bits(&sim), "{label}: one-shot model");
            assert_eq!(shot.classic_plan_compiles(), 0, "{label}: one-shot epochs cache nothing");
        }
    }
}

#[test]
fn a_plan_outlives_restore_and_is_compiled_once() {
    let g = graph();
    for backend in [Backend::Simulated, Backend::Threaded] {
        let mut t = trainer(&g, 2, true, backend);
        assert_eq!(t.classic_plan_compiles(), 0, "the plan is compiled on first use");
        t.train(2).expect("train");
        let early = Checkpoint::from_trainer(&t);
        let first = losses(&t.train(3).expect("train"));

        // Back to epoch 2 with the plan compiled at epoch 0: the Adam step
        // must follow the restored counter, not the compile.
        t.restore(&early).expect("restore");
        assert_eq!(t.epochs_trained(), 2);
        let again = t.train(5).expect("train");
        assert_eq!(losses(&again[..3]), first, "{backend:?}: replay after restore");
        assert_eq!(again[0].epoch, 2);
        assert_eq!(t.classic_plan_compiles(), 1, "{backend:?}: train, restore, train");

        let mut fresh = trainer(&g, 2, true, backend);
        fresh.restore(&early).expect("restore into a fresh trainer");
        assert_eq!(losses(&fresh.train(5).expect("train")), losses(&again));
        assert_eq!(model_bits(&fresh), model_bits(&t), "{backend:?}: fresh vs restored");
    }
}

#[test]
fn evaluation_and_gradients_between_epochs_change_nothing() {
    let g = graph();
    for backend in [Backend::Simulated, Backend::Threaded] {
        let mut plain = trainer(&g, 2, true, backend);
        let want = losses(&plain.train(4).expect("train"));

        let mut busy = trainer(&g, 2, true, backend);
        let mut got = Vec::new();
        for _ in 0..4 {
            let before = model_bits(&busy);
            let eval = busy.evaluate().expect("evaluate");
            let grads = busy.compute_gradients();
            assert_eq!(grads.len(), 3);
            assert_eq!(model_bits(&busy), before, "{backend:?}: inference wrote the model");
            let epoch = busy.train_epoch().expect("train");
            // The epoch's forward pass is the evaluation just made.
            assert_eq!(epoch.loss.to_bits(), eval.loss.to_bits(), "{backend:?}: evaluate");
            got.push(epoch.loss.to_bits());
        }
        assert_eq!(got, want, "{backend:?}: interleaved losses");
        assert_eq!(model_bits(&busy), model_bits(&plain), "{backend:?}: interleaved model");
        assert_eq!(busy.classic_plan_compiles(), 1, "{backend:?}: uncached builds stay uncached");
    }
}
