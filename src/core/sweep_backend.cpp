#include "core/sweep_backend.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "local/engine.hpp"
#include "local/view_engine.hpp"
#include "support/assert.hpp"
#include "support/narrow.hpp"

namespace avglocal::core {

namespace {

/// View-backend state: the per-size algorithm factory plus per-worker
/// partial buffers. Trial aggregates are indexed within the batch and
/// folded into the accumulator after each run_views_batched call, always by
/// integer addition / maximum, so the totals do not depend on which worker
/// ran which vertices.
struct ViewPointState final : BackendPointState {
  const graph::Graph* g = nullptr;
  local::ViewAlgorithmFactory factory;
  struct WorkerPartial {
    std::vector<std::uint64_t> trial_sum;
    std::vector<std::uint64_t> trial_max;
    local::RadiusHistogram histogram;
  };
  std::vector<WorkerPartial> partials;
};

/// Message-backend state: ONE persistent arena-backed engine. The runner
/// outlives every batch and adaptive round the driver pushes through it,
/// so warm-up (topology tables, arenas, contexts) is paid once per
/// (point, lane).
struct MessagePointState final : BackendPointState {
  explicit MessagePointState(local::MessageBatchRunner r) : runner(std::move(r)) {}
  local::MessageBatchRunner runner;
};

}  // namespace

ViewBackend::ViewBackend(AlgorithmProvider algorithms, local::ViewSemantics semantics,
                         bool layer_jump)
    : algorithms_(std::move(algorithms)), semantics_(semantics), layer_jump_(layer_jump) {
  AVGLOCAL_EXPECTS(static_cast<bool>(algorithms_));
}

std::unique_ptr<BackendPointState> ViewBackend::prepare(const graph::Graph& g,
                                                        std::size_t /*point_index*/) const {
  auto state = std::make_unique<ViewPointState>();
  state->g = &g;
  state->factory = algorithms_(g.vertex_count());
  return state;
}

void ViewBackend::run_batch(BackendPointState& state, std::span<const graph::IdAssignment> batch,
                            std::size_t batch_begin, support::ThreadPool* pool,
                            PointAccumulator& acc,
                            std::span<std::uint32_t> radius_matrix) const {
  auto& view_state = static_cast<ViewPointState&>(state);
  const std::size_t n = acc.n;
  const std::size_t batch_size = batch.size();

  view_state.partials.resize(pool != nullptr ? pool->size() : 1);
  for (ViewPointState::WorkerPartial& w : view_state.partials) {
    w.trial_sum.assign(batch_size, 0);
    w.trial_max.assign(batch_size, 0);
    w.histogram = local::RadiusHistogram();
  }

  local::ViewEngineOptions engine;
  engine.semantics = semantics_;
  engine.pool = pool;
  engine.layer_jump = layer_jump_;

  local::run_views_batched(
      *view_state.g, batch, view_state.factory, engine,
      [&](std::size_t worker, std::size_t trial, graph::Vertex v, std::int64_t /*output*/,
          std::size_t radius) {
        ViewPointState::WorkerPartial& w = view_state.partials[worker];
        const auto r = static_cast<std::uint64_t>(radius);
        w.trial_sum[trial] += r;
        w.trial_max[trial] = std::max(w.trial_max[trial], r);
        w.histogram.add(radius);
        // Workers own disjoint vertex ranges, so these shared rows are
        // safe: each (trial, v) cell has exactly one writer.
        acc.node_sum[v] += r;
        radius_matrix[trial * n + v] = support::checked_u32(radius);
      });

  for (const ViewPointState::WorkerPartial& w : view_state.partials) {
    for (std::size_t i = 0; i < batch_size; ++i) {
      acc.trial_sum[batch_begin + i] += w.trial_sum[i];
      acc.trial_max[batch_begin + i] = std::max(acc.trial_max[batch_begin + i], w.trial_max[i]);
    }
    acc.histogram.merge(w.histogram);
  }
}

SweepMemoryModel ViewBackend::memory_model(const graph::Graph& g) const noexcept {
  const std::size_t n = g.vertex_count();
  const std::size_t arcs = g.arc_count();
  SweepMemoryModel model;
  // Per resident trial: the id assignment (8n), its radius-matrix row
  // (4n), its transpose row in the lockstep engine (8n; row_stride rounds
  // trials up to a cache line, amortised per trial), and the worst-case
  // spill id buffer should its ball reach the whole graph (8n). 28n.
  model.bytes_per_trial = n * (8 + 4 + 8 + 8);
  // Per lane: the CSR tables, the canonical edge list (8 bytes per edge),
  // the epoch-stamped ball scratch (local_of + stamps, 8n) and the ball
  // arrays at full coverage. A lockstep lane's grower holds globals, ids,
  // dist and ports (~16n + 4 * arcs); an ids-only lane holds only the
  // geometry's globals and per-radius sizes (at most 8n), so charging the
  // grower keeps the model an upper bound for both modes. The transpose pads its stride to a full cache line
  // (8 id slots), so up to 7 slots beyond the batch width are resident
  // regardless of width - that worst-case rounding excess (56n) is charged
  // here, keeping predicted_lane_bytes an upper bound at every width
  // (pinned by the envelope test in tests/test_large_scale.cpp).
  model.fixed_bytes = g.memory_bytes() + 4 * arcs + 8 * (arcs / 2) + 24 * n + 56 * n;
  return model;
}

SweepMemoryModel MessageBackend::memory_model(const graph::Graph& g) const noexcept {
  const std::size_t n = g.vertex_count();
  const std::size_t arcs = g.arc_count();
  SweepMemoryModel model;
  // Message trials run one at a time through a lane's engine, so a
  // resident trial costs only its id buffer and radius-matrix row.
  model.bytes_per_trial = n * (8 + 4);
  // Per lane: the CSR tables, edge list, per-node contexts and the two
  // ping-pong arenas (8-byte slot + presence bit per arc each, plus
  // payload words at one word per arc as the steady-state floor).
  model.fixed_bytes = g.memory_bytes() + 8 * (arcs / 2) + 48 * n + 2 * (17 * arcs / 2);
  return model;
}

MessageBackend::MessageBackend(MessageAlgorithmProvider algorithms, MessageEngineOptions engine)
    : algorithms_(std::move(algorithms)), engine_(engine) {
  AVGLOCAL_EXPECTS(static_cast<bool>(algorithms_));
}

std::unique_ptr<BackendPointState> MessageBackend::prepare(const graph::Graph& g,
                                                           std::size_t /*point_index*/) const {
  local::EngineOptions options;
  options.knowledge = engine_.knowledge;
  options.max_rounds = engine_.max_rounds;
  return std::make_unique<MessagePointState>(
      local::MessageBatchRunner(g, algorithms_(g.vertex_count()), options));
}

void MessageBackend::run_batch(BackendPointState& state,
                               std::span<const graph::IdAssignment> batch,
                               std::size_t batch_begin, support::ThreadPool* /*pool*/,
                               PointAccumulator& acc,
                               std::span<std::uint32_t> radius_matrix) const {
  auto& message_state = static_cast<MessagePointState&>(state);
  const std::size_t n = acc.n;
  message_state.runner.run(
      batch, [&](std::size_t trial, graph::Vertex v, std::int64_t /*output*/,
                 std::size_t radius) {
        const auto r = static_cast<std::uint64_t>(radius);
        acc.trial_sum[batch_begin + trial] += r;
        acc.trial_max[batch_begin + trial] = std::max(acc.trial_max[batch_begin + trial], r);
        acc.histogram.add(radius);
        acc.node_sum[v] += r;
        radius_matrix[trial * n + v] = support::checked_u32(radius);
      });
}

}  // namespace avglocal::core
