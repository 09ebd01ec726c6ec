#include <cmath>
#include <cstring>
#include <future>
#include <limits>

#include "core/eff_tt_table.hpp"
#include "data/stats.hpp"
#include "embed/embedding_bag.hpp"
#include "phases.hpp"
#include "serve/request_scheduler.hpp"

namespace perfbench {

using namespace elrec;

namespace {

using Buffers = std::vector<std::pair<float*, std::size_t>>;

template <typename Visitable>
Buffers buffers_of(Visitable& owner) {
  Buffers out;
  owner.visit_parameters([&](float* p, std::size_t n) { out.emplace_back(p, n); });
  return out;
}

void copy_buffer(const std::pair<float*, std::size_t>& dst, const float* src,
                 std::size_t n) {
  ELREC_CHECK(dst.second == n, "serving copy: parameter buffer size mismatch");
  std::memcpy(dst.first, src, n * sizeof(float));
}

// Copies every trained parameter into `dst`, which has the trainer's layout
// except that host tables are dense EmbeddingBags there.
void copy_parameters(const ModelSetup& m, ElRecTrainer& trainer,
                     DlrmModel& dst) {
  DlrmModel& src = trainer.model();
  // visit_parameters order is bottom MLP, top MLP, then the tables.
  std::size_t src_table_bufs = 0, dst_table_bufs = 0;
  for (index_t t = 0; t < src.num_tables(); ++t) {
    src_table_bufs += buffers_of(src.table(t)).size();
    dst_table_bufs += buffers_of(dst.table(t)).size();
  }
  const Buffers src_all = buffers_of(src);
  const Buffers dst_all = buffers_of(dst);
  const std::size_t mlp_bufs = src_all.size() - src_table_bufs;
  ELREC_CHECK(mlp_bufs == dst_all.size() - dst_table_bufs,
              "serving copy: MLP layout mismatch");
  for (std::size_t i = 0; i < mlp_bufs; ++i) {
    copy_buffer(dst_all[i], src_all[i].first, src_all[i].second);
  }
  std::size_t host = 0;
  for (index_t t = 0; t < src.num_tables(); ++t) {
    const Buffers d = buffers_of(dst.table(t));
    if (m.trainer.placement[static_cast<std::size_t>(t)] ==
        TablePlacement::kHost) {
      const Matrix& w = trainer.host_store(host++).weights();
      ELREC_CHECK(d.size() == 1, "serving copy: dense table layout mismatch");
      copy_buffer(d[0], w.data(), static_cast<std::size_t>(w.size()));
      continue;
    }
    const Buffers s = buffers_of(src.table(t));
    ELREC_CHECK(s.size() == d.size(), "serving copy: table layout mismatch");
    for (std::size_t i = 0; i < s.size(); ++i) {
      copy_buffer(d[i], s[i].first, s[i].second);
    }
  }
}

// Open-loop request source: one Zipf index per table from the training
// distribution (same dataset seed, so the same hot rows), uniform dense
// features, exponential inter-arrival gaps.
class Traffic {
 public:
  Traffic(const ModelSetup& m, std::uint64_t seed)
      : data_(m.spec, m.data_seed), rng_(seed) {}

  RankingRequest next() {
    RankingRequest req;
    req.dense.resize(static_cast<std::size_t>(data_.spec().num_dense));
    for (float& v : req.dense) v = static_cast<float>(rng_.uniform(-1.0, 1.0));
    req.sparse.resize(data_.spec().table_rows.size());
    for (std::size_t t = 0; t < req.sparse.size(); ++t) {
      req.sparse[t].push_back(
          data_.sampler(static_cast<index_t>(t)).sample(rng_));
    }
    return req;
  }

  double gap_s(double rate) { return -std::log(1.0 - rng_.uniform()) / rate; }

 private:
  SyntheticDataset data_;
  Prng rng_;
};

MiniBatch to_minibatch(const std::vector<RankingRequest>& reqs) {
  MiniBatch mb;
  const auto n = static_cast<index_t>(reqs.size());
  const auto dense = static_cast<index_t>(reqs.front().dense.size());
  mb.dense.resize(n, dense);
  for (index_t i = 0; i < n; ++i) {
    std::memcpy(mb.dense.row(i), reqs[static_cast<std::size_t>(i)].dense.data(),
                sizeof(float) * static_cast<std::size_t>(dense));
  }
  mb.sparse.resize(reqs.front().sparse.size());
  for (std::size_t t = 0; t < mb.sparse.size(); ++t) {
    std::vector<std::vector<index_t>> bags;
    for (const auto& r : reqs) bags.push_back(r.sparse[t]);
    mb.sparse[t] = IndexBatch::from_bags(bags);
  }
  return mb;
}

// p99 needs at least ten samples beyond it.
constexpr std::size_t kMinRequests = 1000;
// Every kCheckEvery-th request is re-scored alone and compared bitwise.
constexpr std::size_t kCheckEvery = 50;

struct StepOutcome {
  std::size_t attempted = 0;
  std::size_t shed = 0;      // refused at the admission bound
  std::size_t failed = 0;    // exception or closed scheduler
  std::size_t unserved = 0;  // accepted but never answered
  std::size_t batches = 0;
  std::size_t served = 0;
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  std::vector<double> latency_us, queue_us, compute_us, late_us;

  double p99() const { return quantile(latency_us, 0.99); }
  bool meets(double limit_us) const {
    return shed == 0 && failed == 0 && unserved == 0 && p99() <= limit_us;
  }
};

// Generates the step's requests and arrival times before the clock starts,
// then submits each at its due time from this thread. Latency counts from
// the due time: generator lateness + queue wait + compute.
StepOutcome run_step(const InferenceSession& session,
                     const RequestSchedulerConfig& cfg, Traffic& traffic,
                     double rate, double duration_s, bool check) {
  const std::size_t n = std::max(
      kMinRequests, static_cast<std::size_t>(std::llround(rate * duration_s)));
  std::vector<RankingRequest> reqs;
  reqs.reserve(n);
  std::vector<Clock::duration> due(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    reqs.push_back(traffic.next());
    t += traffic.gap_s(rate);
    due[i] = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(t));
  }
  std::vector<RankingRequest> sampled;
  std::vector<float> sampled_prob;
  if (check) {
    for (std::size_t i = 0; i < n; i += kCheckEvery) sampled.push_back(reqs[i]);
    sampled_prob.assign(sampled.size(), std::numeric_limits<float>::quiet_NaN());
  }

  StepOutcome out;
  out.attempted = n;
  out.late_us.resize(n);
  std::vector<std::future<RankingResponse>> futs(n);
  std::vector<char> accepted(n, 0);
  {
    RequestScheduler sched(session, cfg);
    const auto start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      const auto target = start + due[i];
      auto now = Clock::now();
      while (now < target) now = Clock::now();
      out.late_us[i] =
          std::chrono::duration<double, std::micro>(now - target).count();
      switch (sched.submit(std::move(reqs[i]), futs[i])) {
        case SubmitStatus::kAccepted: accepted[i] = 1; break;
        case SubmitStatus::kOverloaded: ++out.shed; break;
        case SubmitStatus::kClosed: ++out.failed; break;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!accepted[i]) continue;
      try {
        const RankingResponse resp = futs[i].get();
        const double lat = out.late_us[i] + resp.queue_us + resp.compute_us;
        out.latency_us.push_back(lat);
        out.queue_us.push_back(resp.queue_us);
        out.compute_us.push_back(resp.compute_us);
        if (check && i % kCheckEvery == 0) sampled_prob[i / kCheckEvery] = resp.prob;
      } catch (...) {
        ++out.failed;
      }
    }
    sched.shutdown();
    const RequestScheduler::Stats s = sched.stats();
    out.batches = s.batches;
    out.served = s.served;
    out.unserved = s.accepted - s.served;
  }

  // The frozen-path contract: a request scored inside any micro-batch
  // equals InferenceSession::predict on a batch of one, bitwise.
  if (check) {
    auto state = session.make_worker_state();
    std::vector<float> probs;
    for (std::size_t j = 0; j < sampled.size(); ++j) {
      if (!accepted[j * kCheckEvery]) continue;
      session.predict(to_minibatch({sampled[j]}), probs, *state);
      ++out.checked;
      if (std::memcmp(&probs[0], &sampled_prob[j], sizeof(float)) != 0) {
        ++out.mismatches;
      }
    }
  }
  return out;
}

ServingCacheStats cache_totals(const InferenceSession& session) {
  ServingCacheStats total;
  for (index_t t = 0; t < session.num_tables(); ++t) {
    const ServingCache* cache = session.cache(t);
    if (cache == nullptr) continue;
    const ServingCacheStats s = cache->stats_snapshot();
    total.hits += s.hits;
    total.misses += s.misses;
    total.admitted += s.admitted;
    total.rejected += s.rejected;
  }
  return total;
}

double share(std::size_t part, std::size_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                   : 0.0;
}

// Traced run: InferenceSession::predict replayed on one thread over
// micro-batches of the size the scheduler formed at the fixed rate. The
// benchmark's clock gives dlrm.predict_frozen_us (median per call); the
// program's efftt.lookup spans give core.efftt.lookup_us (mean per call),
// so lookups are counted under the cache's real hit pattern.
void replay_predict(const Workload& w, const Options& o,
                    const InferenceSession& session, Traffic& traffic,
                    index_t batch, Report& r) {
  const int calls = o.tiny ? 20 : 400;
  std::vector<MiniBatch> mbs;
  for (int c = 0; c < calls; ++c) {
    std::vector<RankingRequest> reqs;
    for (index_t i = 0; i < batch; ++i) reqs.push_back(traffic.next());
    mbs.push_back(to_minibatch(reqs));
  }
  auto state = session.make_worker_state();
  std::vector<float> probs;
  std::vector<double> us;
  obs::clear_trace();
  obs::set_trace_enabled(true);
  for (const MiniBatch& mb : mbs) {
    obs::TraceSpan span("bench.serve.predict");
    const auto t0 = Clock::now();
    session.predict(mb, probs, *state);
    us.push_back(seconds_since(t0) * 1e6);
  }
  obs::set_trace_enabled(false);
  const SpanTotals spans = collect_spans();
  obs::write_chrome_trace(o.out_dir + "/trace-" + w.name + "-serve.json");
  r.check("serve_trace_ring_no_drops", spans.dropped == 0,
          std::to_string(spans.dropped) + " span events overwritten");
  r.metric("dlrm.predict_frozen_us", median(us), "us");
  r.metric("core.efftt.lookup_us",
           spans.get_us("efftt.lookup") / static_cast<double>(calls), "us");
}

}  // namespace

std::unique_ptr<InferenceSession> make_session(const Workload& w,
                                               const ModelSetup& m,
                                               ElRecTrainer& trainer) {
  const ElRecTrainerConfig& c = m.trainer;
  const index_t dim = c.model.embedding_dim;
  Prng rng(c.seed);  // initial values are overwritten by the copy below
  std::vector<std::unique_ptr<IEmbeddingTable>> tables;
  for (std::size_t t = 0; t < m.spec.table_rows.size(); ++t) {
    const index_t rows = m.spec.table_rows[t];
    if (c.placement[t] == TablePlacement::kDeviceTT) {
      tables.push_back(std::make_unique<EffTTTable>(
          rows, TTShape::balanced(rows, dim, 3, c.tt_rank), rng));
    } else {
      tables.push_back(std::make_unique<EmbeddingBag>(rows, dim, rng, 0.0f));
    }
  }
  auto model = std::make_unique<DlrmModel>(c.model, std::move(tables), rng);
  copy_parameters(m, trainer, *model);

  InferenceSessionConfig sc;
  if (w.serve_cache) {
    sc.cache.capacity = m.cache_rows;
    sc.cache.admit_min_freq = 2;
  }
  auto session = std::make_unique<InferenceSession>(std::move(model), sc);
  if (w.serve_cache) {
    SyntheticDataset stats(m.spec, m.data_seed);
    for (index_t t = 0; t < session->num_tables(); ++t) {
      session->warm_cache(
          t, top_accessed_indices(stats, t, m.cache_rows, m.warm_draws));
    }
  }
  return session;
}

void run_serve_phase(const Workload& w, const Options& o, const ModelSetup& m,
                     const InferenceSession& session, double budget_s,
                     Report& r) {
  RequestSchedulerConfig cfg;
  cfg.num_workers = static_cast<std::size_t>(o.serve_workers);
  cfg.max_batch = 32;
  cfg.max_wait_us = 100;
  // Deep enough that a few milliseconds of host stall are absorbed rather
  // than shed; sustained overload still fills it and is shed at the door.
  cfg.queue_capacity = 512;
  Traffic traffic(m, o.seed + 0x5E7E);

  // Host interference only ever adds latency, so the estimators favour the
  // least-disturbed windows: each fixed-rate latency is the lower quartile
  // over kWindows windows (stalls in up to 6 of 9 windows leave it alone),
  // and a capacity probe meets the limit if any of up to kVotes windows at
  // that rate does.
  constexpr int kWindows = 9;
  constexpr int kProbes = 8;
  constexpr int kVotes = 3;
  const double fixed_s = 0.4 * budget_s / kWindows;
  const double probe_s = 0.6 * budget_s / (2.0 * kProbes + 1);
  std::size_t attempted = 0, failed = 0, unserved = 0;
  auto step = [&](double rate, double seconds, bool check) {
    StepOutcome s = run_step(session, cfg, traffic, rate, seconds, check);
    attempted += s.attempted;
    failed += s.failed;
    unserved += s.unserved;
    return s;
  };

  // Warm-up: allocator, cache admissions, first-touch of the model.
  step(m.fixed_rps, probe_s, false);

  const ServingCacheStats before = cache_totals(session);
  std::vector<double> p50s, p99s, queue_us, compute_us, late_us;
  std::size_t served = 0, batches = 0, checked = 0, mismatches = 0;
  std::size_t fixed_attempted = 0, fixed_lost = 0;
  for (int i = 0; i < kWindows; ++i) {
    const StepOutcome s = step(m.fixed_rps, fixed_s, true);
    fixed_attempted += s.attempted;
    fixed_lost += s.shed + s.failed + s.unserved;
    p50s.push_back(median(s.latency_us));
    p99s.push_back(s.p99());
    queue_us.insert(queue_us.end(), s.queue_us.begin(), s.queue_us.end());
    compute_us.insert(compute_us.end(), s.compute_us.begin(),
                      s.compute_us.end());
    late_us.insert(late_us.end(), s.late_us.begin(), s.late_us.end());
    served += s.served;
    batches += s.batches;
    checked += s.checked;
    mismatches += s.mismatches;
  }
  const ServingCacheStats after = cache_totals(session);

  // Capacity: the highest rate whose p99 meets the limit with nothing shed.
  // Double from the fixed rate until a rate misses, then bisect
  // geometrically between the last rate that met the limit and the first
  // that missed.
  double lo = m.fixed_rps;
  double hi = 0.0;  // no miss seen yet
  std::string probes;
  for (int p = 0; p < kProbes; ++p) {
    const double rate = hi > 0.0 ? std::sqrt(lo * hi) : 2.0 * lo;
    bool met = false;
    for (int v = 0; v < kVotes && !met; ++v) {
      const StepOutcome s = step(rate, probe_s, false);
      met = s.meets(m.limit_us);
      probes += std::to_string(std::llround(rate)) + "/p99=" +
                std::to_string(std::llround(s.p99())) + "/late99=" +
                std::to_string(std::llround(quantile(s.late_us, 0.99))) +
                "/shed=" + std::to_string(s.shed) + " ";
    }
    (met ? lo : hi) = rate;
  }
  r.ops(attempted, failed + unserved);
  r.check("serve_every_accepted_request_served", failed == 0 && unserved == 0,
          std::to_string(failed) + " failed, " + std::to_string(unserved) +
              " accepted but unanswered");
  r.check("serve_matches_batch_of_one_bitwise", checked > 0 && mismatches == 0,
          std::to_string(mismatches) + " of " + std::to_string(checked) +
              " sampled responses differ");

  r.metric("serve_p50_us", quantile(p50s, 0.25), "us");
  r.metric("serve_p99_us", quantile(p99s, 0.25), "us");
  r.metric("serve_max_rps", lo, "1/s");

  const double batch_mean = share(served, batches);
  r.metric("serve.queue_p50_us", median(queue_us), "us");
  r.metric("serve.compute_p50_us", median(compute_us), "us");
  r.metric("serve.compute_p99_us", quantile(compute_us, 0.99), "us");
  r.metric("serve.batch_mean", batch_mean, "requests");
  r.metric("serve.cache.hit_ratio",
           share(after.hits - before.hits,
                 after.hits - before.hits + after.misses - before.misses),
           "share");
  r.metric("serve.cache.admit_ratio",
           share(after.admitted - before.admitted,
                 after.admitted - before.admitted + after.rejected -
                     before.rejected),
           "share");
  r.metric("serve.gen_late_p99_us", quantile(late_us, 0.99), "us");
  // Shed, failed or unanswered at the fixed rate; a shed request counts as
  // missing the limit. 0 on a healthy run.
  r.metric("serve.fail_frac", share(fixed_lost, fixed_attempted), "share");
  if (o.trace) {
    replay_predict(w, o, session, traffic,
                   std::max<index_t>(1, std::llround(batch_mean)), r);
  }

  r.meta("serve_fixed_rps", m.fixed_rps);
  r.meta("serve_limit_us", m.limit_us);
  r.meta("serve_queue_capacity", static_cast<double>(cfg.queue_capacity));
  r.meta("serve_probes", probes);
}

}  // namespace perfbench
