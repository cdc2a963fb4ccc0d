//! The three workloads: how each builds its world, generates its
//! inputs from the seed, sets up the linker and runs its feedback round.

use crate::clock::{median_lap, Lap, Stopwatch};
use crate::report::Report;
use crate::serve::{
    check_cache, check_phase1, check_request, feedback_round, layer_metrics, measure, phase1_texts,
    quality, same_answers, splitmix, timing_metrics, warm_pass, Answer, Inputs, Query, Traffic,
};
use crate::stats::{median, sorted};
use crate::trace::Tracer;
use crate::Args;
use ncl_core::comaid::{
    ComAid, ComAidConfig, MappedCheckpoint, OntologyIndex, OutputMode, TrainPair, Variant,
};
use ncl_core::feedback::HotSwapCell;
use ncl_core::{Linker, LinkerConfig, NclConfig, NclPipeline};
use ncl_datagen::ontology_gen::generate_icd10cm_at_least;
use ncl_datagen::query_gen::corrupt;
use ncl_datagen::{
    CorruptionClass, Dataset, DatasetConfig, DatasetProfile, NoteConfig, NoteProfile,
};
use ncl_embedding::CbowConfig;
use ncl_nn::optimizer::LrSchedule;
use ncl_ontology::{ConceptId, Ontology};
use ncl_text::{tokenize, Vocab};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::OnceCell;
use std::path::PathBuf;

/// Set-up repetitions per run; `setup_s` reports their median.
const SETUP_REPS: usize = 3;
/// The experiment harness's default base seed: the trained worlds are
/// the harness's default-scale datasets, so only traffic varies by seed.
const HARNESS_SEED: u64 = 0xB5EED;
/// ICD-10-CM's code count (§6.1); the generator lands just above it.
const ICD10_CONCEPTS: usize = 93_830;
/// Notes per run the query workloads send through span proposal.
const PROBE_NOTES: usize = 300;

/// Where runs leave spans and checkpoints (inside the benchmark's
/// directory, ignored by git).
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn mix(seed: u64, salt: u64) -> u64 {
    let mut s = seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F);
    splitmix(&mut s)
}

fn med(v: &[f64]) -> f64 {
    median(&sorted(v.to_vec()))
}

/// `setup_s` in process CPU time (see `clock.rs`), and its wall time.
fn setup_metrics(setup: Lap, report: &mut Report) {
    report.metric("setup_s", setup.cpu_s, "s");
    report.metric("wall.setup_s", setup.wall_s, "s");
}

/// The harness's default-scale dataset for a profile.
fn dataset(profile: DatasetProfile) -> Dataset {
    Dataset::generate(DatasetConfig {
        profile,
        categories: 40,
        aliases_per_concept: 4,
        unlabeled_snippets: 1200,
        seed: HARNESS_SEED
            ^ match profile {
                DatasetProfile::HospitalX => 0x1,
                DatasetProfile::MimicIii => 0x2,
            },
    })
}

/// The harness's default NCL configuration (d = 48, Table 1 defaults),
/// trained on two threads; sharded training is bit-identical at every
/// thread count, so this buys set-up time, not a different model.
fn ncl_config() -> NclConfig {
    let dim = 48;
    NclConfig {
        comaid: ComAidConfig {
            dim,
            beta: 2,
            variant: Variant::Full,
            epochs: 36,
            lr: 0.3,
            lr_decay: 0.96,
            batch_size: 16,
            clip_norm: 5.0,
            seed: HARNESS_SEED ^ dim as u64,
            output_mode: OutputMode::Full,
            train_threads: 2,
        },
        cbow: CbowConfig {
            dim,
            window: 5,
            negative: 8,
            epochs: 8,
            lr: 0.05,
            seed: HARNESS_SEED ^ 0xCB0,
            threads: 1,
        },
        pretrain: true,
        linker: linker_config(),
    }
}

fn linker_config() -> LinkerConfig {
    LinkerConfig {
        k: 20,
        ..LinkerConfig::default()
    }
}

/// Keeps drawn items while their class is under quota, drawing batch
/// after batch until every quota is met. Every seed then sends the same
/// mix of classes (query lengths, mentions per note), so a median over
/// the traffic does not jump between modes from one seed to the next.
fn fill_quotas<T>(
    quota: &[usize],
    class: impl Fn(&T) -> usize,
    mut draw: impl FnMut(u64) -> Vec<T>,
) -> Vec<T> {
    let mut left = quota.to_vec();
    let mut out = Vec::with_capacity(quota.iter().sum());
    let mut batch = 0;
    while left.iter().any(|&q| q > 0) {
        assert!(batch < 10_000, "quotas {left:?} cannot be met");
        for item in draw(batch) {
            let c = class(&item).min(left.len() - 1);
            if left[c] > 0 {
                left[c] -= 1;
                out.push(item);
            }
        }
        batch += 1;
    }
    out
}

fn histogram<T>(items: &[T], class: impl Fn(&T) -> usize, classes: usize) -> Vec<usize> {
    let mut h = vec![0; classes];
    for item in items {
        h[class(item).min(classes - 1)] += 1;
    }
    h
}

/// Query length in tokens, the main driver of a query's scoring cost.
fn length_class(q: &Query) -> usize {
    q.tokens.len()
}

fn to_queries(v: Vec<ncl_datagen::LabeledQuery>) -> Vec<Query> {
    v.into_iter()
        .map(|q| Query {
            tokens: q.tokens,
            truth: q.truth,
        })
        .collect()
}

/// Timed queries with the length mix of `reference`, drawn from
/// `draw(seed)` batches.
fn stratified(
    reference: &[Query],
    classes: usize,
    draw: impl Fn(u64) -> Vec<Query>,
    seed: u64,
) -> Vec<Query> {
    let quota = histogram(reference, length_class, classes);
    fill_quotas(&quota, length_class, |b| draw(mix(seed, 1000 + b)))
}

/// Hospital-X mention queries: standard groups (purposive + random,
/// §6.1's protocol at harness scale) and as many OOV-heavy ones. The
/// timed half has the length mix of three reference groups of each
/// kind; the quality pass adds six more groups of each.
fn mentions_inputs(ds: &Dataset, seed: u64) -> Inputs {
    let standard = |s: u64| to_queries(ds.query_group(120, 24, s));
    let oov = |s: u64| to_queries(ds.oov_heavy_group(120, s));
    let reference = |f: &dyn Fn(u64) -> Vec<Query>| -> Vec<Query> { (1..=3).flat_map(f).collect() };
    let mut queries = stratified(&reference(&standard), 9, standard, mix(seed, 1));
    queries.extend(stratified(&reference(&oov), 9, oov, mix(seed, 2)));
    let mut quality_queries = Vec::new();
    for g in 0..6 {
        quality_queries.extend(standard(mix(seed, 10 + g)));
        quality_queries.extend(oov(mix(seed, 20 + g)));
    }
    Inputs {
        traffic: Traffic::Queries,
        queries,
        notes: ds
            .note_profile(NoteConfig {
                seed: mix(seed, 30),
                ..NoteConfig::default()
            })
            .notes(PROBE_NOTES),
        quality_queries,
        quality_notes: Vec::new(),
        open_rate: 120.0,
    }
}

/// MIMIC-III notes with gold spans: the timed notes hold equally many
/// notes of each mention count the generator draws (3 to 8); the
/// quality pass adds 240 more.
fn notes_inputs(ds: &Dataset, seed: u64) -> Inputs {
    let config = NoteConfig {
        seed: mix(seed, 40),
        ..NoteConfig::default()
    };
    let profile = ds.note_profile(config);
    let counts = config.mentions_min..=config.mentions_max;
    let mut quota = vec![0; config.mentions_max + 1];
    for c in counts {
        quota[c] = 20;
    }
    let notes = fill_quotas(
        &quota,
        |n: &ncl_datagen::Note| n.gold.len(),
        |b| vec![profile.note(b + 1)],
    );
    let quality_notes = (0..240).map(|i| profile.note(1_000_000 + i)).collect();
    Inputs {
        traffic: Traffic::Notes,
        queries: Vec::new(),
        notes,
        quality_queries: Vec::new(),
        quality_notes,
        open_rate: 12.0,
    }
}

/// `n` corrupted canonicals of random fine-grained ICD-10-CM concepts,
/// cycling through every corruption class.
fn corrupted(o: &Ontology, fine: &[ConceptId], n: usize, seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    let classes = CorruptionClass::ALL;
    (0..n)
        .map(|i| {
            let truth = fine[rng.gen_range(0..fine.len())];
            let canonical = tokenize(&o.concept(truth).canonical);
            Query {
                tokens: corrupt(&canonical, classes[i % classes.len()], &mut rng),
                truth,
            }
        })
        .collect()
}

/// 480 timed corrupted canonicals with the length mix of a fixed
/// reference draw, 960 more for the quality pass, and notes over the
/// ICD-10-CM ontology for the span-proposal probe.
fn icd10_inputs(o: &Ontology, seed: u64) -> Inputs {
    let fine = o.fine_grained();
    let draw = |s: u64| corrupted(o, &fine, 60, s);
    let queries = stratified(&corrupted(o, &fine, 480, 0x1CD), 13, draw, mix(seed, 50));
    Inputs {
        traffic: Traffic::Queries,
        queries,
        notes: NoteProfile::new(
            o,
            DatasetProfile::HospitalX,
            NoteConfig {
                seed: mix(seed, 60),
                ..NoteConfig::default()
            },
        )
        .notes(PROBE_NOTES),
        quality_queries: corrupted(o, &fine, 960, mix(seed, 70)),
        quality_notes: Vec::new(),
        open_rate: 120.0,
    }
}

/// Quality pass, output checks, timed rounds and their metrics.
fn serve(
    linker: &Linker<'_>,
    ontology: &Ontology,
    inputs: &Inputs,
    answers: &[Answer],
    args: &Args,
    tracer: Option<&mut Tracer>,
    report: &mut Report,
) {
    quality(linker, inputs, answers, report);
    let texts = phase1_texts(inputs, answers);
    check_phase1(linker, ontology, &texts, 200, report);
    let cache_mb = check_cache(linker, ontology, report);
    report.metric("cache.mb", cache_mb, "MB");
    let mut tracer = tracer;
    let t = measure(
        linker,
        inputs,
        answers,
        args.seconds,
        mix(args.seed, 70),
        tracer.as_deref_mut(),
        report,
    );
    timing_metrics(&t, report);
    if let Some(tr) = tracer {
        layer_metrics(&t, tr, report);
    }
}

/// Saves the model as a v2 checkpoint, then opens and loads it back;
/// the loaded model must answer as the original does. Returns the
/// open + load time (process CPU).
fn persist_probe(
    model: &ComAid,
    ontology: &Ontology,
    inputs: &Inputs,
    answers: &[Answer],
    name: &str,
    report: &mut Report,
) -> f64 {
    let path = out_dir().join(format!("{name}.nclmodel"));
    let saved = std::fs::create_dir_all(out_dir())
        .map_err(|e| e.to_string())
        .and_then(|()| model.save_v2_to_path(&path).map_err(|e| e.to_string()));
    report.check(saved.is_ok(), || {
        format!("cannot save checkpoint: {saved:?}")
    });
    let sw = Stopwatch::start();
    let loaded = MappedCheckpoint::open(&path).and_then(|mut m| m.load_model());
    let load_s = sw.lap().cpu_s;
    match loaded {
        Ok(m) => {
            let linker = Linker::new(&m, ontology, linker_config());
            for i in (0..inputs.requests()).step_by(16) {
                check_request(&linker, inputs, answers, i, report);
            }
        }
        Err(e) => report.check(false, || format!("cannot load checkpoint: {e}")),
    }
    let _ = std::fs::remove_file(&path);
    load_s
}

/// The trained workloads: set-up is `NclPipeline::fit` plus the median
/// of `SETUP_REPS` (`Linker::new` + warm-up pass); the fit alone runs
/// for many seconds, so one fit per run is already a long window.
fn trained(
    ds: &Dataset,
    inputs: &Inputs,
    args: &Args,
    tracer: Option<&mut Tracer>,
    report: &mut Report,
) {
    let sw = Stopwatch::start();
    let mut pipeline = NclPipeline::fit(&ds.ontology, &ds.unlabeled, ncl_config());
    let fit = sw.lap();
    report.metric("fit.pretrain_s", pipeline.pretrain_time.as_secs_f64(), "s");
    report.metric("fit.refine_s", pipeline.refine_time.as_secs_f64(), "s");
    report.metric(
        "fit.pairs_per_s",
        pipeline.report.pairs_per_sec(),
        "pairs/s",
    );

    let (mut reps, mut freezes) = (Vec::new(), Vec::new());
    let mut kept: Option<(Linker<'_>, Vec<Answer>)> = None;
    for _ in 0..SETUP_REPS {
        let previous = kept.take().map(|(_, a)| a);
        let sw = Stopwatch::start();
        let linker = Linker::new(&pipeline.model, &ds.ontology, linker_config());
        freezes.push(sw.lap().cpu_s);
        let answers = warm_pass(&linker, inputs);
        reps.push(sw.lap());
        if let Some(p) = previous {
            report.check(same_answers(&p, &answers), || {
                "a rebuilt linker answers differently".into()
            });
        }
        kept = Some((linker, answers));
    }
    let (linker, answers) = kept.expect("at least one set-up");
    let rep = median_lap(&reps);
    setup_metrics(
        Lap {
            wall_s: fit.wall_s + rep.wall_s,
            cpu_s: fit.cpu_s + rep.cpu_s,
        },
        report,
    );
    report.metric("freeze.s", med(&freezes), "s");
    for a in &answers {
        report.op(a.failed());
    }
    serve(
        &linker,
        &ds.ontology,
        inputs,
        &answers,
        args,
        tracer,
        report,
    );
    let load_s = persist_probe(
        &pipeline.model,
        &ds.ontology,
        inputs,
        &answers,
        &args.workload,
        report,
    );
    report.metric("checkpoint.load_s", load_s, "s");
    drop(linker);

    let cell = pipeline.serving_cell(&ds.ontology, linker_config());
    feedback_round(
        &cell,
        &ds.ontology,
        inputs,
        &answers,
        report,
        |labels, publish| {
            let sw = Stopwatch::start();
            pipeline.retrain_with_feedback(&ds.ontology, labels, 3);
            let retrain = sw.lap();
            publish(&pipeline.model);
            retrain
        },
    );
}

pub fn mentions(args: &Args, tracer: Option<&mut Tracer>, report: &mut Report) {
    let ds = dataset(DatasetProfile::HospitalX);
    let inputs = mentions_inputs(&ds, args.seed);
    trained(&ds, &inputs, args, tracer, report);
}

pub fn notes_workload(args: &Args, tracer: Option<&mut Tracer>, report: &mut Report) {
    let ds = dataset(DatasetProfile::MimicIii);
    let inputs = notes_inputs(&ds, args.seed);
    trained(&ds, &inputs, args, tracer, report);
}

/// An untrained paper-shaped model over the ontology's description
/// vocabulary (the fig17 scale model): training changes neither the
/// cache's geometry nor its freeze cost.
fn untrained(o: &Ontology) -> ComAid {
    let mut vocab = Vocab::new();
    for (_, c) in o.iter() {
        for t in tokenize(&c.canonical) {
            vocab.add(&t);
        }
    }
    let config = ComAidConfig {
        dim: 16,
        beta: 2,
        variant: Variant::Full,
        seed: 29,
        ..ComAidConfig::tiny()
    };
    ComAid::new(vocab, config, None)
}

pub fn icd10_scale(args: &Args, tracer: Option<&mut Tracer>, report: &mut Report) {
    let o = generate_icd10cm_at_least(ICD10_CONCEPTS, 17);
    report.check(o.num_concepts() >= ICD10_CONCEPTS, || {
        format!("ontology has only {} concepts", o.num_concepts())
    });
    let inputs = icd10_inputs(&o, args.seed);
    let path = out_dir().join("icd10_scale.nclmodel");
    let saved = std::fs::create_dir_all(out_dir())
        .map_err(|e| e.to_string())
        .and_then(|()| {
            untrained(&o)
                .save_v2_to_path(&path)
                .map_err(|e| e.to_string())
        });
    report.check(saved.is_ok(), || {
        format!("cannot save checkpoint: {saved:?}")
    });
    // One model slot per set-up: each repetition loads its own model,
    // and the last one's model and linker stay for the measurement.
    let slots: Vec<OnceCell<ComAid>> = (0..SETUP_REPS).map(|_| OnceCell::new()).collect();
    let (mut reps, mut loads, mut freezes) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept: Option<(Linker<'_>, Vec<Answer>)> = None;
    for slot in &slots {
        let previous = kept.take().map(|(_, a)| a);
        let sw = Stopwatch::start();
        let model = slot.get_or_init(|| {
            MappedCheckpoint::open(&path)
                .and_then(|mut m| m.load_model())
                .expect("open and load the v2 checkpoint written above")
        });
        let loaded = sw.lap().cpu_s;
        loads.push(loaded);
        let linker = Linker::new(model, &o, LinkerConfig::default());
        freezes.push(sw.lap().cpu_s - loaded);
        let answers = warm_pass(&linker, &inputs);
        reps.push(sw.lap());
        if let Some(p) = previous {
            report.check(same_answers(&p, &answers), || {
                "a reloaded linker answers differently".into()
            });
        }
        kept = Some((linker, answers));
    }
    let (linker, answers) = kept.expect("at least one set-up");
    let _ = std::fs::remove_file(&path);
    setup_metrics(median_lap(&reps), report);
    report.metric("checkpoint.load_s", med(&loads), "s");
    report.metric("freeze.s", med(&freezes), "s");
    // No training happens in this workload.
    report.metric("fit.pretrain_s", 0.0, "s");
    report.metric("fit.refine_s", 0.0, "s");
    report.metric("fit.pairs_per_s", 0.0, "pairs/s");
    for a in &answers {
        report.op(a.failed());
    }
    serve(&linker, &o, &inputs, &answers, args, tracer, report);
    drop(linker);
    let mut model = slots
        .into_iter()
        .last()
        .and_then(OnceCell::into_inner)
        .expect("the last set-up loaded a model");

    let cell = HotSwapCell::new(&model, &o, LinkerConfig::default());
    feedback_round(&cell, &o, &inputs, &answers, report, |labels, publish| {
        let sw = Stopwatch::start();
        let pairs: Vec<TrainPair> = labels
            .iter()
            .map(|l| TrainPair {
                concept: l.concept,
                target: l
                    .query
                    .iter()
                    .map(|w| model.vocab().get_or_unk(w))
                    .collect(),
            })
            .collect();
        let index = OntologyIndex::build(&o, model.vocab(), model.config().beta);
        let lr = model.config().lr * 0.3;
        if !pairs.is_empty() {
            model.fit_epochs(&index, &pairs, 1, LrSchedule::constant(lr));
        }
        let retrain = sw.lap();
        publish(&model);
        retrain
    });
}
