// The two phases every workload runs: pipelined training of the workload's
// model, then open-loop serving of the model it trained.
#pragma once

#include <memory>

#include "harness.hpp"
#include "pipeline/elrec_trainer.hpp"
#include "serve/inference_session.hpp"

namespace perfbench {

/// Model, data and sizes shared by both phases of a workload.
struct ModelSetup {
  elrec::DatasetSpec spec;
  elrec::ElRecTrainerConfig trainer;
  elrec::index_t batch_size = 0;
  std::uint64_t data_seed = 0;
  // train_loss is the mean BCE of steps [loss_steps - loss_window,
  // loss_steps) of a fixed-seed run of the workload's model.
  elrec::index_t loss_steps = 0;
  elrec::index_t loss_window = 0;
  elrec::index_t replay_steps = 0;     // traced run: steps of the layer replay
  elrec::index_t cache_rows = 0;       // ServingCache rows per table
  elrec::index_t warm_draws = 0;       // draws that pick the warmed hot set
  double fixed_rps = 0.0;              // serving: the fixed offered rate
  double limit_us = 0.0;               // serving: the p99 latency limit
};

ModelSetup make_model_setup(const Workload& w, const Options& o);

/// Trains `trainer` (pipelined, queue 4) for about `budget_s` seconds.
/// Untraced: train_samples_per_s and train_loss. Traced: queue-1 vs
/// queue-4 overlap, tracing overhead, span/counter layer metrics and the
/// layer replay of the step.
void run_train_phase(const Workload& w, const Options& o, const ModelSetup& m,
                     elrec::ElRecTrainer& trainer,
                     elrec::SyntheticDataset& data, double budget_s,
                     Report& report);

/// Frozen serving copy of the trainer's parameters. Host-resident tables
/// become dense EmbeddingBags; Eff-TT and dense tables keep their type.
std::unique_ptr<elrec::InferenceSession> make_session(
    const Workload& w, const ModelSetup& m, elrec::ElRecTrainer& trainer);

/// Open-loop Poisson traffic through a RequestScheduler for about
/// `budget_s` seconds: the fixed-rate windows, then the capacity search.
void run_serve_phase(const Workload& w, const Options& o, const ModelSetup& m,
                     const elrec::InferenceSession& session, double budget_s,
                     Report& report);

}  // namespace perfbench
