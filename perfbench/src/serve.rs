//! The measurement engine every workload shares: the warm-up pass, the
//! quality pass and its output checks, the timed rounds (closed-loop
//! serial, batch, open-loop through the front end), the traced layer
//! pass, and the feedback round's hot-swap checks.

use crate::clock::{self, median_lap, Lap, Stopwatch};
use crate::report::Report;
use crate::stats::{mean, median, quantile, sorted};
use crate::trace::{Tracer, ROOT};
use ncl_core::comaid::ComAid;
use ncl_core::feedback::{ExpertLabel, FeedbackConfig, FeedbackController, HotSwapCell};
use ncl_core::{
    ComAidScore, DocumentResult, Frontend, FrontendConfig, LinkResult, Linker, ProposeConfig,
    ScoreRequest, ScoreStage,
};
use ncl_datagen::Note;
use ncl_ontology::{ConceptId, Ontology};
use ncl_text::tfidf::TfIdfIndex;
use ncl_text::tokenize;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// A labeled mention query.
pub struct Query {
    pub tokens: Vec<String>,
    pub truth: ConceptId,
}

/// What the timed rounds send.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Mention queries through `link`, `link_batch` and `Frontend::submit`.
    Queries,
    /// Whole notes through `link_document` and `Frontend::submit_document`.
    Notes,
}

pub struct Inputs {
    pub traffic: Traffic,
    /// Labeled mention queries (the traffic of `Traffic::Queries`).
    pub queries: Vec<Query>,
    /// Notes with gold spans: the traffic of `Traffic::Notes`, and the
    /// span-proposal probe of the query workloads.
    pub notes: Vec<Note>,
    /// Further queries (or notes) the quality pass scores after the
    /// warm-up pass, so the quality metrics rest on a larger sample
    /// than the timed traffic.
    pub quality_queries: Vec<Query>,
    pub quality_notes: Vec<Note>,
    /// Fixed Poisson arrival rate of the open loop, requests per second.
    pub open_rate: f64,
}

/// The open loop sends every `OPEN_EVERY`-th request of each round, so
/// its idle waiting does not crowd the CPU-bound paths out of the window.
const OPEN_EVERY: usize = 3;

/// Notes per round that the traced pass of a query workload sends
/// through span proposal and document linking.
const LAYER_NOTES: usize = 40;

impl Inputs {
    pub fn requests(&self) -> usize {
        match self.traffic {
            Traffic::Queries => self.queries.len(),
            Traffic::Notes => self.notes.len(),
        }
    }

    fn tokens(&self, i: usize) -> &[String] {
        match self.traffic {
            Traffic::Queries => &self.queries[i].tokens,
            Traffic::Notes => &self.notes[i].tokens,
        }
    }
}

/// One served request: a mention query's answer or a note's.
pub enum Answer {
    Query(LinkResult),
    Note(DocumentResult),
}

impl Answer {
    /// Whether the answer carries a degradation marker.
    pub fn failed(&self) -> bool {
        match self {
            Answer::Query(r) => r.is_degraded(),
            Answer::Note(d) => d.degradation.is_degraded(),
        }
    }

    /// Ids, score bits and (for notes) spans equal.
    pub fn same(&self, other: &Answer) -> bool {
        match (self, other) {
            (Answer::Query(a), Answer::Query(b)) => same_ranked(&a.ranked, &b.ranked),
            (Answer::Note(a), Answer::Note(b)) => same_doc(a, b),
            _ => false,
        }
    }
}

/// Serves request `i` of the timed traffic once, serially.
fn serve_one(linker: &Linker<'_>, inputs: &Inputs, i: usize) -> Answer {
    match inputs.traffic {
        Traffic::Queries => Answer::Query(linker.link(&inputs.queries[i].tokens)),
        Traffic::Notes => Answer::Note(linker.link_document(&inputs.notes[i].tokens)),
    }
}

/// The warm-up pass: every request once. Its answers are the reference
/// every later answer is compared against bit for bit.
pub fn warm_pass(linker: &Linker<'_>, inputs: &Inputs) -> Vec<Answer> {
    (0..inputs.requests())
        .map(|i| serve_one(linker, inputs, i))
        .collect()
}

pub fn same_answers(a: &[Answer], b: &[Answer]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.same(y))
}

/// The query texts the timed traffic sends to Phase I: the queries, or
/// the proposed spans of every note.
pub fn phase1_texts<'i>(inputs: &'i Inputs, answers: &'i [Answer]) -> Vec<&'i [String]> {
    match inputs.traffic {
        Traffic::Queries => inputs.queries.iter().map(|q| q.tokens.as_slice()).collect(),
        Traffic::Notes => inputs
            .notes
            .iter()
            .zip(doc_results(answers))
            .flat_map(|(n, d)| {
                d.spans
                    .iter()
                    .map(|s| &n.tokens[s.proposal.start..s.proposal.end()])
            })
            .collect(),
    }
}

fn link_results(answers: &[Answer]) -> impl Iterator<Item = &LinkResult> {
    answers.iter().filter_map(|a| match a {
        Answer::Query(r) => Some(r),
        Answer::Note(_) => None,
    })
}

fn doc_results(answers: &[Answer]) -> impl Iterator<Item = &DocumentResult> {
    answers.iter().filter_map(|a| match a {
        Answer::Note(d) => Some(d),
        Answer::Query(_) => None,
    })
}

/// Ids and score bits equal.
fn same_ranked(a: &[(ConceptId, f32)], b: &[(ConceptId, f32)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

fn same_doc(a: &DocumentResult, b: &DocumentResult) -> bool {
    a.spans.len() == b.spans.len()
        && a.spans.iter().zip(&b.spans).all(|(x, y)| {
            x.proposal == y.proposal && same_ranked(&x.result.ranked, &y.result.ranked)
        })
}

/// Properties every full answer must have: at most `k` candidates, the
/// ranking a permutation of the candidates, sorted by descending score
/// with ties broken by ascending concept id, every score finite.
fn check_result(res: &LinkResult, k: usize, report: &mut Report) {
    if res.is_degraded() {
        return;
    }
    report.check(res.candidates.len() <= k && res.ranked.len() <= k, || {
        format!("more than k={k} candidates ({})", res.ranked.len())
    });
    let mut ids: Vec<ConceptId> = res.ranked.iter().map(|&(c, _)| c).collect();
    let mut cands = res.candidates.clone();
    ids.sort();
    cands.sort();
    report.check(ids == cands, || {
        "ranking is not a permutation of the candidates".into()
    });
    report.check(res.ranked.iter().all(|(_, s)| s.is_finite()), || {
        "a full answer carries a non-finite score".into()
    });
    let ordered = res
        .ranked
        .windows(2)
        .all(|w| w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0));
    report.check(ordered, || {
        "ranking not sorted by score with concept-id tie-break".into()
    });
}

fn overlap(a: (usize, usize), b: (usize, usize)) -> usize {
    a.1.min(b.1).saturating_sub(a.0.max(b.0))
}

fn frac(a: usize, b: usize) -> f64 {
    a as f64 / b.max(1) as f64
}

/// Span precision and recall by token overlap with the gold spans.
fn span_pr(notes: &[&Note], proposals: &[Vec<(usize, usize)>]) -> (f64, f64) {
    let (mut props, mut hit_props, mut gold, mut hit_gold) = (0, 0, 0, 0);
    for (note, ps) in notes.iter().zip(proposals) {
        props += ps.len();
        hit_props += ps
            .iter()
            .filter(|&&p| note.gold.iter().any(|g| overlap(p, (g.start, g.end())) > 0))
            .count();
        gold += note.gold.len();
        hit_gold += note
            .gold
            .iter()
            .filter(|g| ps.iter().any(|&p| overlap(p, (g.start, g.end())) > 0))
            .count();
    }
    (frac(hit_props, props), frac(hit_gold, gold))
}

/// Top-1 and Phase-I recall of each gold span, judged by the proposed
/// span that overlaps it most (`(false, false)` when none does).
fn gold_hits(note: &Note, doc: &DocumentResult) -> Vec<(bool, bool)> {
    note.gold
        .iter()
        .map(|g| {
            let best = doc
                .spans
                .iter()
                .map(|s| {
                    (
                        overlap((s.proposal.start, s.proposal.end()), (g.start, g.end())),
                        s,
                    )
                })
                .filter(|(o, _)| *o > 0)
                .max_by_key(|(o, s)| (*o, std::cmp::Reverse(s.proposal.start)));
            best.map_or((false, false), |(_, s)| {
                (
                    s.result.top1() == Some(g.truth),
                    s.result.candidates.contains(&g.truth),
                )
            })
        })
        .collect()
}

/// The quality pass over the warm-up answers and the extra quality
/// inputs, plus the output checks that need no timing. Records
/// `top1_acc`, `phase1_recall`, `span_precision` and `span_recall`.
pub fn quality(linker: &Linker<'_>, inputs: &Inputs, answers: &[Answer], report: &mut Report) {
    let k = linker.config().k;
    let propose = |notes: &[Note]| -> Vec<Vec<(usize, usize)>> {
        notes
            .iter()
            .map(|n| {
                linker
                    .propose_spans(&n.tokens, &ProposeConfig::default())
                    .iter()
                    .map(|p| (p.start, p.end()))
                    .collect()
            })
            .collect()
    };
    let (hits, notes, proposals): (Vec<(bool, bool)>, Vec<&Note>, _) = match inputs.traffic {
        Traffic::Queries => {
            let extra: Vec<Vec<String>> = inputs
                .quality_queries
                .iter()
                .map(|q| q.tokens.clone())
                .collect();
            let extra = linker.link_batch(&extra);
            let queries = inputs.queries.iter().chain(&inputs.quality_queries);
            let hits = queries
                .zip(link_results(answers).chain(&extra))
                .map(|(q, r)| {
                    check_result(r, k, report);
                    (r.top1() == Some(q.truth), r.candidates.contains(&q.truth))
                })
                .collect();
            (hits, inputs.notes.iter().collect(), propose(&inputs.notes))
        }
        Traffic::Notes => {
            for (note, doc) in inputs.notes.iter().zip(doc_results(answers)) {
                // A span's answer is the one `link` gives its tokens.
                for s in &doc.spans {
                    let alone = linker.link(&note.tokens[s.proposal.start..s.proposal.end()]);
                    report.check(same_ranked(&alone.ranked, &s.result.ranked), || {
                        format!(
                            "span {}..{} links differently on its own",
                            s.proposal.start,
                            s.proposal.end()
                        )
                    });
                }
            }
            let extra: Vec<DocumentResult> = inputs
                .quality_notes
                .iter()
                .map(|n| linker.link_document(&n.tokens))
                .collect();
            let notes: Vec<&Note> = inputs.notes.iter().chain(&inputs.quality_notes).collect();
            let mut hits = Vec::new();
            let mut proposals = Vec::new();
            for (note, doc) in notes.iter().zip(doc_results(answers).chain(&extra)) {
                let disjoint = doc
                    .spans
                    .windows(2)
                    .all(|w| w[0].proposal.end() <= w[1].proposal.start);
                report.check(disjoint, || "document spans overlap or are unsorted".into());
                for s in &doc.spans {
                    check_result(&s.result, k, report);
                }
                hits.extend(gold_hits(note, doc));
                proposals.push(
                    doc.spans
                        .iter()
                        .map(|s| (s.proposal.start, s.proposal.end()))
                        .collect(),
                );
            }
            (hits, notes, proposals)
        }
    };
    let count =
        |f: fn(&(bool, bool)) -> bool| frac(hits.iter().filter(|h| f(h)).count(), hits.len());
    let (p, r) = span_pr(&notes, &proposals);
    report.metric("top1_acc", count(|h| h.0), "ratio");
    report.metric("phase1_recall", count(|h| h.1), "ratio");
    report.metric("span_precision", p, "ratio");
    report.metric("span_recall", r, "ratio");
}

/// Phase-I candidates must equal an exhaustive TF-IDF scan over an
/// index the benchmark builds itself from the same concept texts (one
/// document per fine-grained concept: canonical tokens, then alias
/// tokens), on up to `sample` request texts.
pub fn check_phase1(
    linker: &Linker<'_>,
    ontology: &Ontology,
    texts: &[&[String]],
    sample: usize,
    report: &mut Report,
) {
    let fine = ontology.fine_grained();
    let docs: Vec<Vec<String>> = fine
        .iter()
        .map(|&id| {
            let c = ontology.concept(id);
            let mut toks = tokenize(&c.canonical);
            for a in &c.aliases {
                toks.extend(tokenize(a));
            }
            toks
        })
        .collect();
    let index = TfIdfIndex::build(&docs);
    let k = linker.config().k;
    let step = (texts.len() / sample.max(1)).max(1);
    for q in texts.iter().step_by(step).take(sample) {
        let (rewritten, candidates) = linker.retrieve(q);
        let exhaustive: Vec<ConceptId> = index
            .top_k_exhaustive(&rewritten, k)
            .iter()
            .map(|&(d, _)| fine[d])
            .collect();
        report.check(exhaustive == candidates, || {
            format!("Phase-I candidates differ from the exhaustive scan for {q:?}")
        });
    }
}

/// The frozen cache must cover every concept of the ontology.
pub fn check_cache(linker: &Linker<'_>, ontology: &Ontology, report: &mut Report) -> f64 {
    let Some(cache) = linker.cache() else {
        report.check(false, || "linker has no frozen cache".into());
        return 0.0;
    };
    let r = cache.memory_report();
    report.check(
        r.frozen_concepts == r.concepts && r.concepts >= ontology.len(),
        || {
            format!(
                "cache covers {} of {} nodes (ontology has {})",
                r.frozen_concepts,
                r.concepts,
                ontology.len()
            )
        },
    );
    r.total_bytes() as f64 / 1e6
}

/// Per-request samples of the timed rounds.
#[derive(Default)]
pub struct Timings {
    pub rounds: u32,
    /// Serial loop, per request: wall time and process CPU time.
    pub serial_ms: Vec<f64>,
    pub serial_cpu_ms: Vec<f64>,
    pub traced_serial_ms: Vec<f64>,
    pub traced_serial_cpu_ms: Vec<f64>,
    pub batch_requests: u64,
    /// Batch rounds: wall time and process CPU time, summed.
    pub batch: Lap,
    pub open_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub queued_ms: Vec<f64>,
    pub service_ms: Vec<f64>,
    pub admitted_partial: u64,
    pub admitted_shed: u64,
    layers: Layers,
}

/// Work counters of the traced layer pass.
#[derive(Default)]
struct Layers {
    chains: u64,
    candidates: u64,
    postings_examined: u64,
    postings_pruned: u64,
    docs_scored: u64,
    memo_hits: u64,
    memo_lookups: u64,
    notes: u64,
    proposals: u64,
    doc_spans: u64,
}

/// SplitMix64: the benchmark's own seeded stream for arrival times.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Poisson arrival offsets for `n` requests at `rate` per second.
fn schedule(n: usize, rate: f64, seed: u64) -> Vec<Duration> {
    let mut state = seed;
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            let u = ((splitmix(&mut state) >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
            t += -u.ln() / rate;
            Duration::from_secs_f64(t)
        })
        .collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Worker loops of the front end: with the load generator's own thread
/// they use no more threads than the machine has.
fn frontend_workers() -> usize {
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    hw.saturating_sub(1).max(1)
}

/// The timed rounds. Each round sends every request once through each
/// path in a fixed order (serial loop, traced serial loop and layer
/// pass when tracing, batch, open loop); rounds repeat until `seconds`
/// have passed, so every run attempts whole rounds.
pub fn measure(
    linker: &Linker<'_>,
    inputs: &Inputs,
    answers: &[Answer],
    seconds: f64,
    seed: u64,
    mut tracer: Option<&mut Tracer>,
    report: &mut Report,
) -> Timings {
    let n = inputs.requests().div_ceil(OPEN_EVERY);
    // The shipped admission ladder and queue ceiling; only the worker
    // count (see `frontend_workers`) and the deadline differ. The far
    // deadline still routes every request down the front end's
    // per-candidate scoring path, but no host stall can expire it.
    let fe = Frontend::new(
        linker,
        FrontendConfig {
            deadline: Some(Duration::from_secs(60)),
            workers: frontend_workers(),
            ..FrontendConfig::default()
        },
    );
    let scorer = ComAidScore::new(linker);
    let mut t = Timings::default();
    let mut request_id = 0u64;
    let start = Instant::now();
    while t.rounds == 0 || start.elapsed().as_secs_f64() < seconds {
        serial_round(
            linker,
            inputs,
            answers,
            None,
            &mut request_id,
            &mut t,
            report,
        );
        if let Some(tr) = tracer.as_deref_mut() {
            serial_round(
                linker,
                inputs,
                answers,
                Some(tr),
                &mut request_id,
                &mut t,
                report,
            );
            layer_round(
                linker,
                &scorer,
                inputs,
                answers,
                tr,
                &mut request_id,
                &mut t.layers,
                report,
            );
        }
        batch_round(linker, inputs, answers, &mut t, report);
        open_round(
            &fe,
            inputs,
            answers,
            seed ^ u64::from(t.rounds),
            &mut t,
            report,
        );
        t.rounds += 1;
    }
    let s = fe.stats();
    report.check(s.submitted == s.completed + s.rejected + s.invalid, || {
        format!(
            "front-end counts do not add up: submitted {} != completed {} + rejected {} + invalid {}",
            s.submitted, s.completed, s.rejected, s.invalid
        )
    });
    report.check(s.submitted == (n as u64) * u64::from(t.rounds), || {
        format!("front end saw {} submissions", s.submitted)
    });
    t.admitted_partial = s.admitted_partial;
    t.admitted_shed = s.admitted_shed;
    t
}

/// A later answer must equal the warm-up answer bit for bit, unless it
/// is degraded (then it counts as failed, not as wrong).
fn check_answer(answers: &[Answer], i: usize, got: &Answer, report: &mut Report) {
    report.check(got.failed() || answers[i].same(got), || {
        format!("request {i} answered differently from the warm-up pass")
    });
}

fn serial_round(
    linker: &Linker<'_>,
    inputs: &Inputs,
    answers: &[Answer],
    mut tracer: Option<&mut Tracer>,
    request_id: &mut u64,
    t: &mut Timings,
    report: &mut Report,
) {
    for i in 0..inputs.requests() {
        *request_id += 1;
        let c0 = clock::process_cpu_s();
        let t0 = Instant::now();
        let span = tracer
            .as_deref_mut()
            .map(|tr| tr.enter("serial", ROOT, *request_id));
        let got = serve_one(linker, inputs, i);
        if let (Some(tr), Some(s)) = (tracer.as_deref_mut(), span) {
            tr.exit(s);
        }
        let (wall, cpu) = (ms(t0.elapsed()), (clock::process_cpu_s() - c0) * 1e3);
        if tracer.is_some() {
            t.traced_serial_ms.push(wall);
            t.traced_serial_cpu_ms.push(cpu);
        } else {
            t.serial_ms.push(wall);
            t.serial_cpu_ms.push(cpu);
        }
        report.op(got.failed());
        check_answer(answers, i, &got, report);
    }
}

fn batch_round(
    linker: &Linker<'_>,
    inputs: &Inputs,
    answers: &[Answer],
    t: &mut Timings,
    report: &mut Report,
) {
    let batch: Vec<Vec<String>> = inputs.queries.iter().map(|q| q.tokens.clone()).collect();
    let watch = Stopwatch::start();
    let got: Vec<Answer> = match inputs.traffic {
        Traffic::Queries => linker
            .link_batch(&batch)
            .into_iter()
            .map(Answer::Query)
            .collect(),
        // Notes per second through back-to-back `link_document`.
        Traffic::Notes => warm_pass(linker, inputs),
    };
    let lap = watch.lap();
    t.batch.wall_s += lap.wall_s;
    t.batch.cpu_s += lap.cpu_s;
    report.check(got.len() == inputs.requests(), || {
        "the batch lost requests".into()
    });
    for (i, a) in got.iter().enumerate() {
        report.op(a.failed());
        check_answer(answers, i, a, report);
    }
    t.batch_requests += inputs.requests() as u64;
}

fn open_round(
    fe: &Frontend<'_, '_>,
    inputs: &Inputs,
    answers: &[Answer],
    seed: u64,
    t: &mut Timings,
    report: &mut Report,
) {
    let chosen: Vec<usize> = (0..inputs.requests()).step_by(OPEN_EVERY).collect();
    let n = chosen.len();
    let offsets = schedule(n, inputs.open_rate, seed);
    let payloads: Vec<Vec<String>> = chosen.iter().map(|&i| inputs.tokens(i).to_vec()).collect();
    let mut sent: Vec<(Duration, Option<u64>)> = Vec::with_capacity(n);
    let origin = Instant::now() + Duration::from_millis(2);
    fe.serve(|| {
        for (payload, &offset) in payloads.into_iter().zip(&offsets) {
            let due = origin + offset;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let at = Instant::now();
            let id = match inputs.traffic {
                Traffic::Queries => fe.submit(payload),
                Traffic::Notes => fe.submit_document(payload),
            };
            sent.push((at.saturating_duration_since(due), id.ok()));
        }
    });
    // (queued, total, failed) per submission id, plus the answer check.
    let index_of: HashMap<u64, usize> = chosen
        .iter()
        .zip(&sent)
        .filter_map(|(&i, (_, id))| id.map(|id| (id, i)))
        .collect();
    let completions: Vec<(u64, Duration, Duration, Answer)> = match inputs.traffic {
        Traffic::Queries => fe
            .take_completions()
            .into_iter()
            .map(|c| (c.id, c.queued, c.total, Answer::Query(c.result)))
            .collect(),
        Traffic::Notes => fe
            .take_document_completions()
            .into_iter()
            .map(|c| (c.id, c.queued, c.total, Answer::Note(c.result)))
            .collect(),
    };
    let mut done: HashMap<u64, (Duration, Duration, bool)> = HashMap::with_capacity(n);
    for (id, queued, total, got) in completions {
        if let Some(&i) = index_of.get(&id) {
            check_answer(answers, i, &got, report);
        }
        done.insert(id, (queued, total, got.failed()));
    }
    for (late, id) in sent {
        let Some(id) = id else {
            report.op(true);
            continue;
        };
        let Some(&(queued, total, degraded)) = done.get(&id) else {
            report.check(false, || format!("open-loop request {id} never completed"));
            continue;
        };
        report.op(degraded);
        t.late_ms.push(ms(late));
        t.open_ms.push(ms(late + total));
        t.queued_ms.push(ms(queued));
        t.service_ms.push(ms(total.saturating_sub(queued)));
    }
}

/// One request through the layer entry points one at a time, each call
/// in its own span: rewrite, retrieve (on the rewritten tokens), score
/// without a deadline (the batched cached path), score under a far
/// deadline (the per-candidate path), then the whole `link`.
#[allow(clippy::too_many_arguments)]
fn chain(
    linker: &Linker<'_>,
    scorer: &ComAidScore<'_, '_>,
    tokens: &[String],
    tr: &mut Tracer,
    parent: u32,
    id: u64,
    acc: &mut Layers,
    report: &mut Report,
) -> LinkResult {
    let rewritten = tr.span("rewrite", parent, id, || linker.rewrite_query(tokens));
    let (candidates, stats) = tr.span("retrieve", parent, id, || {
        let (_, c, s) = linker.retrieve_with_stats(&rewritten);
        (c, s)
    });
    let request = ScoreRequest {
        query: &rewritten,
        candidates: &candidates,
        deadline: None,
    };
    let plain = tr.span("score", parent, id, || scorer.score(request));
    let far = Instant::now() + Duration::from_secs(60);
    let timed = tr.span("score_deadline", parent, id, || {
        scorer.score(ScoreRequest {
            deadline: Some(far),
            ..request
        })
    });
    let res = tr.span("link", parent, id, || linker.link(tokens));
    report.op(res.is_degraded());

    // The layers composed by hand give the answer `link` gives.
    report.check(
        res.rewritten == rewritten && res.candidates == candidates,
        || format!("layer-by-layer Phase I differs from link for {tokens:?}"),
    );
    let bits = |o: &ncl_core::ScoreOutcome| -> Vec<Option<u32>> {
        o.scores.iter().map(|s| s.map(f32::to_bits)).collect()
    };
    report.check(bits(&plain) == bits(&timed), || {
        "batched and per-candidate scoring disagree".into()
    });
    let mut ranked: Vec<(ConceptId, f32)> = candidates
        .iter()
        .zip(&plain.scores)
        .filter_map(|(&c, s)| s.map(|s| (c, s)))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    if !res.is_degraded() {
        report.check(same_ranked(&ranked, &res.ranked), || {
            format!("hand-ranked scores differ from link for {tokens:?}")
        });
    }

    acc.chains += 1;
    acc.candidates += candidates.len() as u64;
    acc.postings_examined += stats.postings_examined as u64;
    acc.postings_pruned += stats.postings_pruned as u64;
    acc.docs_scored += stats.docs_scored as u64;
    acc.memo_hits += res.retrieval.rewrite_cache_hits as u64;
    acc.memo_lookups +=
        (res.retrieval.rewrite_cache_hits + res.retrieval.rewrite_cache_misses) as u64;
    res
}

/// Propose and document spans for one note; returns the document.
fn note_layers(
    linker: &Linker<'_>,
    note: &Note,
    tr: &mut Tracer,
    parent: u32,
    id: u64,
    acc: &mut Layers,
    report: &mut Report,
) -> DocumentResult {
    let proposals = tr.span("propose", parent, id, || {
        linker.propose_spans(&note.tokens, &ProposeConfig::default())
    });
    let doc = tr.span("document", parent, id, || {
        linker.link_document(&note.tokens)
    });
    report.op(doc.degradation.is_degraded());
    let same = proposals.len() == doc.spans.len()
        && proposals
            .iter()
            .zip(&doc.spans)
            .all(|(p, s)| *p == s.proposal);
    report.check(same, || "document spans differ from propose_spans".into());
    acc.notes += 1;
    acc.proposals += proposals.len() as u64;
    acc.doc_spans += doc.spans.len() as u64;
    doc
}

#[allow(clippy::too_many_arguments)]
fn layer_round(
    linker: &Linker<'_>,
    scorer: &ComAidScore<'_, '_>,
    inputs: &Inputs,
    answers: &[Answer],
    tr: &mut Tracer,
    request_id: &mut u64,
    acc: &mut Layers,
    report: &mut Report,
) {
    match inputs.traffic {
        Traffic::Queries => {
            for (i, q) in inputs.queries.iter().enumerate() {
                *request_id += 1;
                let root = tr.enter("request", ROOT, *request_id);
                let res = chain(
                    linker,
                    scorer,
                    &q.tokens,
                    tr,
                    root,
                    *request_id,
                    acc,
                    report,
                );
                tr.exit(root);
                check_answer(answers, i, &Answer::Query(res), report);
            }
            for note in inputs.notes.iter().take(LAYER_NOTES) {
                *request_id += 1;
                let root = tr.enter("note", ROOT, *request_id);
                note_layers(linker, note, tr, root, *request_id, acc, report);
                tr.exit(root);
            }
        }
        Traffic::Notes => {
            for (i, note) in inputs.notes.iter().enumerate() {
                *request_id += 1;
                let root = tr.enter("note", ROOT, *request_id);
                let doc = note_layers(linker, note, tr, root, *request_id, acc, report);
                for s in &doc.spans {
                    let span_tokens = &note.tokens[s.proposal.start..s.proposal.end()];
                    chain(
                        linker,
                        scorer,
                        span_tokens,
                        tr,
                        root,
                        *request_id,
                        acc,
                        report,
                    );
                }
                tr.exit(root);
                check_answer(answers, i, &Answer::Note(doc), report);
            }
        }
    }
}

/// The end-to-end metrics of the timed rounds, on the clock `clock.rs`
/// explains: the serial median and the batch rate in process CPU time.
/// The wall-clock figures follow as `wall.*`, for reading only.
pub fn timing_metrics(t: &Timings, report: &mut Report) {
    let p50 = |v: &[f64]| median(&sorted(v.to_vec()));
    report.metric("serial_p50_ms", p50(&t.serial_cpu_ms), "ms");
    report.metric(
        "throughput_rps_per_cpu",
        t.batch_requests as f64 / t.batch.cpu_s,
        "req/cpu-s",
    );
    report.metric("wall.serial_p50_ms", p50(&t.serial_ms), "ms");
    report.metric(
        "wall.throughput_rps",
        t.batch_requests as f64 / t.batch.wall_s,
        "req/s",
    );
    report.metric("frontend.open_p50_ms", p50(&t.open_ms), "ms");
    // Admissions below the top rung, in every run: the open-loop rates
    // are chosen so that the shipped watermarks never trigger.
    report.metric(
        "frontend.admitted_partial",
        t.admitted_partial as f64,
        "count",
    );
    report.metric("frontend.admitted_shed", t.admitted_shed as f64, "count");
}

/// The per-layer metrics of a traced run.
pub fn layer_metrics(t: &Timings, tr: &Tracer, report: &mut Report) {
    let a = &t.layers;
    let mean_us = |name: &str| mean(&tr.durations_us(name));
    let (rewrite, retrieve, score, link) = (
        mean_us("rewrite"),
        mean_us("retrieve"),
        mean_us("score"),
        mean_us("link"),
    );
    let chains = a.chains.max(1) as f64;
    report.metric("rewrite.us_per_query", rewrite, "us");
    report.metric(
        "rewrite.memo_hit_ratio",
        frac(a.memo_hits as usize, a.memo_lookups as usize),
        "ratio",
    );
    report.metric("retrieve.us_per_query", retrieve, "us");
    report.metric(
        "retrieve.postings_examined_per_query",
        a.postings_examined as f64 / chains,
        "count",
    );
    report.metric(
        "retrieve.docs_scored_per_query",
        a.docs_scored as f64 / chains,
        "count",
    );
    report.metric(
        "retrieve.pruned_ratio",
        frac(
            a.postings_pruned as usize,
            (a.postings_pruned + a.postings_examined) as usize,
        ),
        "ratio",
    );
    report.metric("score.us_per_query", score, "us");
    report.metric(
        "score.us_per_candidate",
        tr.durations_us("score").iter().sum::<f64>() / a.candidates.max(1) as f64,
        "us",
    );
    report.metric(
        "score.deadline_us_per_query",
        mean_us("score_deadline"),
        "us",
    );
    report.metric(
        "link.unattributed_frac",
        1.0 - (rewrite + retrieve + score) / link,
        "ratio",
    );
    report.metric("propose.us_per_note", mean_us("propose"), "us");
    report.metric(
        "propose.spans_per_note",
        a.proposals as f64 / a.notes.max(1) as f64,
        "count",
    );
    report.metric(
        "document.us_per_span",
        tr.durations_us("document").iter().sum::<f64>() / a.doc_spans.max(1) as f64,
        "us",
    );
    let serial_rate = 1e3 / mean(&t.serial_ms);
    report.metric(
        "batch.speedup",
        t.batch_requests as f64 / t.batch.wall_s / serial_rate,
        "ratio",
    );
    let p = |v: &[f64], q: f64| quantile(&sorted(v.to_vec()), q);
    report.metric("frontend.queue_wait_p50_ms", p(&t.queued_ms, 0.5), "ms");
    report.metric("frontend.service_p50_ms", p(&t.service_ms, 0.5), "ms");
    report.metric("frontend.e2e_p99_ms", p(&t.open_ms, 0.99), "ms");
    report.metric("frontend.late_p99_ms", p(&t.late_ms, 0.99), "ms");
    report.metric(
        "trace.overhead_ms",
        p(&t.traced_serial_cpu_ms, 0.5) - p(&t.serial_cpu_ms, 0.5),
        "ms",
    );
    report.metric("trace.spans", tr.spans().len() as f64, "count");
}

/// Labels for one feedback round (Appendix A): every request the
/// uncertainty gates pool, and every mention the model got wrong, is
/// labeled from the generator's gold.
fn feedback_labels(inputs: &Inputs, answers: &[Answer]) -> Vec<ExpertLabel> {
    let mut fc = FeedbackController::new(FeedbackConfig::default());
    let mut labels = Vec::new();
    match inputs.traffic {
        Traffic::Queries => {
            for (q, r) in inputs.queries.iter().zip(link_results(answers)) {
                let pooled = fc.observe(&q.tokens, &r.ranked).uncertain;
                if pooled || r.top1() != Some(q.truth) {
                    labels.push(ExpertLabel {
                        concept: q.truth,
                        query: q.tokens.clone(),
                    });
                }
            }
        }
        Traffic::Notes => {
            for (note, doc) in inputs.notes.iter().zip(doc_results(answers)) {
                let pooled = fc.observe_document(&note.tokens, doc);
                for g in &note.gold {
                    let gr = (g.start, g.end());
                    let best = doc
                        .spans
                        .iter()
                        .enumerate()
                        .map(|(i, s)| (overlap((s.proposal.start, s.proposal.end()), gr), i))
                        .filter(|(o, _)| *o > 0)
                        .max_by_key(|&(o, i)| (o, std::cmp::Reverse(i)));
                    let wanted = match best {
                        Some((_, i)) => {
                            pooled.contains(&i) || doc.spans[i].result.top1() != Some(g.truth)
                        }
                        None => true,
                    };
                    if wanted {
                        labels.push(ExpertLabel {
                            concept: g.truth,
                            query: note.span_tokens(g).to_vec(),
                        });
                    }
                }
            }
        }
    }
    labels
}

/// Serves request `i` through `linker` and checks the answer against
/// the warm-up reference, bit for bit.
pub fn check_request(
    linker: &Linker<'_>,
    inputs: &Inputs,
    answers: &[Answer],
    i: usize,
    report: &mut Report,
) {
    check_answer(answers, i, &serve_one(linker, inputs, i), report);
}

/// Publishes of the retrained model per feedback round; `publish_s`
/// takes their median, as the freeze of a large cache varies by a
/// tenth from one publish to the next.
const PUBLISH_REPS: u64 = 3;

/// One feedback round through a hot-swap cell: `round` retrains on the
/// labels, then hands the retrained model to its second argument, which
/// publishes it `PUBLISH_REPS` times; `round` returns the retrain lap.
/// `publish_s` is the retrain plus the median publish, in process CPU
/// time. A snapshot taken before the first publish must serve the
/// measured linker's answers bit for bit before and after it, and each
/// publish must raise the generation by exactly one.
pub fn feedback_round(
    cell: &HotSwapCell,
    ontology: &Ontology,
    inputs: &Inputs,
    answers: &[Answer],
    report: &mut Report,
    round: impl FnOnce(&[ExpertLabel], &mut dyn FnMut(&ComAid)) -> Lap,
) {
    let labels = feedback_labels(inputs, answers);
    let g0 = cell.generation();
    let probe: Vec<usize> = (0..inputs.requests()).step_by(8).collect();
    let mut before = Some(cell.snapshot());
    if let Some(snapshot) = &before {
        let old = snapshot.linker(ontology);
        for &i in &probe {
            check_request(&old, inputs, answers, i, report);
        }
    }
    let mut laps = Vec::new();
    let retrain = round(&labels, &mut |model| {
        for k in 1..=PUBLISH_REPS {
            let sw = Stopwatch::start();
            let generation = cell.publish(model, ontology);
            laps.push(sw.lap());
            let want = g0 + k;
            report.check(
                generation == want
                    && cell.generation() == want
                    && cell.snapshot().generation() == want,
                || format!("publish {k} installed generation {generation}, not {want}"),
            );
            // Released after the first publish, so the later publishes
            // do not also keep generation 0's cache alive.
            if let Some(snapshot) = before.take() {
                let old = snapshot.linker(ontology);
                for &i in &probe {
                    check_request(&old, inputs, answers, i, report);
                }
            }
        }
    });
    report.check(laps.len() as u64 == PUBLISH_REPS, || {
        format!("the round published {} times", laps.len())
    });
    let publish = median_lap(&laps);
    report.metric("publish_s", retrain.cpu_s + publish.cpu_s, "s");
    report.metric("wall.publish_s", retrain.wall_s + publish.wall_s, "s");
    report.metric("feedback.labels", labels.len() as f64, "count");
    report.metric("feedback.retrain_s", retrain.cpu_s, "s");
    report.metric("feedback.publish_s", publish.cpu_s, "s");
}
