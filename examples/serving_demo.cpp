// Serving demo: the functional ServingEngine end to end.
//
//   $ ./example_serving_demo
//
// Replays a Poisson request trace through the streaming serving engine:
// the shared length-aware batch former groups arrivals, the batched
// runtime executes each formed batch for real, and the virtual-time
// report is accounted with the accelerator service model -- so the
// offline recurrence (FormBatches + ScheduleFormedBatches) on the same
// trace produces the identical report.  Also shows caller-pushed requests
// bouncing off a bounded admission queue (backpressure).

#include <cstdio>

#include "latte/latte.hpp"

int main() {
  using namespace latte;

  const auto dataset = Mrpc();

  // The functional model is scaled down so the demo runs in seconds;
  // latency accounting still prices batches on full BERT-base.
  const ModelConfig small = ScaledDown(BertBase(), 6);
  const ModelInstance model(small, 2022);

  PoissonTraceConfig arrivals;
  arrivals.arrival_rate_rps = 80;
  arrivals.requests = 48;

  ServingEngineConfig cfg;
  cfg.former.max_batch = 8;
  cfg.former.timeout_s = 0.02;
  cfg.workers = 2;
  cfg.threads = 2;
  cfg.inference.mode = InferenceMode::kSparseInt8;
  cfg.inference.sparse.top_k = 30;
  ServiceModelSpec spec;
  spec.base = ServiceModelSpec::Base::kAccelerator;
  spec.model = BertBase();
  cfg.service = BuildServiceModel(spec);

  // 1. Replay a Poisson trace through the engine.
  const auto trace = GeneratePoissonTrace(arrivals, dataset);
  ServingEngine engine(model, cfg);
  const ServingResult res = engine.Replay(trace);
  const ServingReport& rep = res.report();

  std::printf("replayed %zu %s requests -> %zu batches (mean size %.1f)\n",
              rep.requests, dataset.name.c_str(), rep.batches,
              rep.mean_batch_size);
  std::printf("  p50 / p95 / p99 latency : %.1f / %.1f / %.1f ms\n",
              rep.p50_latency_s * 1e3, rep.p95_latency_s * 1e3,
              rep.p99_latency_s * 1e3);
  std::printf("  throughput              : %.1f req/s over %zu workers\n",
              rep.throughput_rps, cfg.workers);
  std::printf("  device busy fraction    : %.0f%%\n",
              100 * rep.device_busy_frac);
  std::printf("  functional execution    : %.1f ms wall, %zu outputs\n",
              res.wall_s * 1e3, res.outputs.size());

  // The offline recurrence on the same trace: same former, same service
  // model, same accounting -- the report matches field for field.
  const ServingReport sim =
      ScheduleFormedBatches(trace, FormBatches(trace, cfg.former),
                            cfg.workers, cfg.service)
          .report;
  std::printf("  offline agreement       : p99 %.4f ms vs %.4f ms\n\n",
              sim.p99_latency_s * 1e3, rep.p99_latency_s * 1e3);

  // 2. Caller-pushed requests against a bounded queue: a burst beyond the
  //    waiting room bounces instead of growing the tail.
  ServingEngineConfig bounded = cfg;
  bounded.queue_capacity = 6;
  ServingEngine gate(model, bounded);
  std::size_t bounced = 0;
  for (std::size_t i = 0; i < 24; ++i) {
    const TimedRequest burst{0.001 * static_cast<double>(i), 48 + 4 * (i % 5)};
    if (!gate.Push(burst)) ++bounced;
  }
  const ServingResult gated = gate.Drain();
  std::printf("burst of 24 pushed requests, queue capacity %zu:\n",
              bounded.queue_capacity);
  std::printf("  accepted %zu, bounced %zu (peak queue %zu)\n",
              gated.admission.accepted, bounced, gated.admission.peak_queue);
  return 0;
}
