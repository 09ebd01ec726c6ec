// End-to-end benchmark program: one workload per process.
//
//   elrec_perfbench --workload train-tt|train-host|serve-zipf --seed N
//                   --seconds S --trace 0|1 [--tiny] [--omp N]
//                   [--serve-workers N] [--out DIR]
//
// Every workload trains its model with the pipelined ElRecTrainer and then
// serves what it trained through a RequestScheduler, so each run yields
// every end-to-end metric; the workloads differ in where the large tables
// live, what the serving path looks up, and how the time is split. The last
// line of stdout is one JSON object with the metrics, the checks and the
// run's metadata. perfbench/run.py builds this program and wraps it.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "obs/trace.hpp"
#include "phases.hpp"

namespace {

using namespace perfbench;

// Why each workload exists is in perfbench/README.md.
const Workload kWorkloads[] = {
    {"train-tt", /*host_tables=*/false, /*serve_cache=*/false, 0.4},
    {"train-host", /*host_tables=*/true, /*serve_cache=*/false, 0.4},
    {"serve-zipf", /*host_tables=*/false, /*serve_cache=*/true, 0.7},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "elrec_perfbench: %s\nusage: elrec_perfbench --workload W "
               "--seed N --seconds S --trace 0|1 [--tiny] [--omp N] "
               "[--serve-workers N] [--out DIR]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      o.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--omp") {
      o.omp_threads = std::stoi(value);
    } else if (flag == "--serve-workers") {
      o.serve_workers = std::stoi(value);
    } else if (flag == "--out") {
      o.out_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (o.seconds <= 0.0 || o.omp_threads < 1 || o.serve_workers < 1) {
    usage("--seconds, --omp and --serve-workers must be positive");
  }
  return o;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return w;
  }
  usage("unknown workload '" + name + "'");
}

// Each workload must leave the other's layers idle: with the large tables on
// the device no byte crosses the codec or the queues, and with them in the
// host store no Eff-TT code runs. A non-zero value here means a layer
// metric is attributed to the wrong workload.
void check_bypass(const Workload& w, Report& r) {
  const std::vector<std::string> idle =
      w.host_tables
          ? std::vector<std::string>{"core.efftt.fwd_us", "core.efftt.bwd_us",
                                     "core.efftt.reuse_hit_ratio",
                                     "core.efftt.lookup_us"}
          : std::vector<std::string>{"codec.encode_us", "codec.decode_us",
                                     "codec.bytes_ratio",
                                     "pipeline.queue_bytes_per_step"};
  std::string busy;
  for (const std::string& name : idle) {
    if (r.value(name) != 0.0) busy += name + " ";
  }
  r.check("bypassed_layers_idle", busy.empty(),
          busy.empty() ? "" : "non-zero: " + busy);
}

int run(const Options& o) {
  const Workload& w = find_workload(o.workload);
  const ModelSetup m = make_model_setup(w, o);
#ifdef _OPENMP
  omp_set_num_threads(o.omp_threads);
#endif
  // End-to-end metrics are measured untraced; the traced run switches
  // recording on only around the windows it reads.
  elrec::obs::set_trace_enabled(false);
  elrec::obs::set_trace_capacity(1 << 14);
  if (!o.out_dir.empty()) std::filesystem::create_directories(o.out_dir);

  Report report;
  // Set-up: model construction (tables, MLPs, host stores), the data
  // stream, and the serving session with its warmed cache. Repeated in the
  // untraced run so setup_s is a median; the last trainer is kept.
  std::unique_ptr<elrec::ElRecTrainer> trainer;
  std::unique_ptr<elrec::SyntheticDataset> data;
  std::vector<double> setup_s;
  for (int rep = 0; rep < (o.trace ? 1 : 3); ++rep) {
    trainer.reset();
    data.reset();
    const auto t0 = Clock::now();
    trainer = std::make_unique<elrec::ElRecTrainer>(m.trainer, m.spec);
    data = std::make_unique<elrec::SyntheticDataset>(m.spec, m.data_seed);
    const auto session = make_session(w, m, *trainer);
    setup_s.push_back(seconds_since(t0));
  }
  report.metric("setup_s", median(setup_s), "s");

  const double serve_s = o.seconds * w.serve_share;
  run_train_phase(w, o, m, *trainer, *data, o.seconds - serve_s, report);
  {
    const auto session = make_session(w, m, *trainer);
    trainer.reset();  // the session holds its own copy of the parameters
    // Read before the serving steps: their pre-generated request arrays
    // are the benchmark's memory, not the system's.
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    run_serve_phase(w, o, m, *session, serve_s, report);
  }
  if (o.trace) check_bypass(w, report);

  report.meta("seed", static_cast<double>(o.seed));
  report.meta("seconds", o.seconds);
  report.meta("trace", o.trace ? 1.0 : 0.0);
  report.meta("tiny", o.tiny ? 1.0 : 0.0);
  report.meta("omp_threads", static_cast<double>(o.omp_threads));
  report.meta("serve_workers", static_cast<double>(o.serve_workers));
  report.meta("train_threads", static_cast<double>(o.omp_threads + 1));
  report.meta("serve_threads", static_cast<double>(o.serve_workers + 1));
  report.meta("batch_size", static_cast<double>(m.batch_size));
  std::printf("%s\n", report.to_json(w.name).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "elrec_perfbench: %s\n", e.what());
    return 1;
  }
}
