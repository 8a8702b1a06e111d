#pragma once
// LATTE -- Length-Adaptive Transformer Engine.
//
// Umbrella header exposing the full public API: the sparse attention
// operator (core), the transformer reference implementation (nn), the
// scheduling algorithms (sched), the FPGA simulator (fpga), the baseline
// platform models (platform), the batched execution runtime (runtime),
// the streaming serving engine (serve), the request-result cache with
// in-flight coalescing (cache), the multi-replica serving cluster
// (cluster), the virtual-time pricing of tensor-parallel gangs -- shard
// planner, interconnect model and sharded service model (sched, serve) --
// the simulated-annealing design-space search over the
// unified DesignPoint serving-config API (search), the SLO-driven
// admission and accuracy-degradation controller (adapt), the workload
// generators (workload), the evaluation metrics (metrics) and the
// observability layer -- request-lifecycle tracing, the unified metrics
// registry, the Chrome-trace / manifest exporters, and the latency
// attribution / flame / critical-path analysis over recorded traces
// (obs), plus versioned .lattetrace capture/replay (workload).
//
// See README.md for a quickstart and DESIGN.md for the architecture.

#include "adapt/controller.hpp"
#include "adapt/escalate.hpp"
#include "cache/coalesce.hpp"
#include "cache/eviction.hpp"
#include "cache/key.hpp"
#include "cache/stats.hpp"
#include "cache/store.hpp"
#include "cluster/accounting.hpp"
#include "cluster/cluster.hpp"
#include "cluster/policy.hpp"
#include "cluster/replica.hpp"
#include "core/candidate_selector.hpp"
#include "core/fused_kernel.hpp"
#include "core/sparse_attention.hpp"
#include "core/topk.hpp"
#include "fpga/accelerator.hpp"
#include "fpga/hbm.hpp"
#include "fpga/pipeline_sim.hpp"
#include "fpga/resources.hpp"
#include "fpga/trace.hpp"
#include "fpga/timing.hpp"
#include "metrics/accuracy.hpp"
#include "metrics/design_explorer.hpp"
#include "metrics/energy.hpp"
#include "metrics/fidelity.hpp"
#include "metrics/report.hpp"
#include "model/config.hpp"
#include "model/inference.hpp"
#include "nn/attention.hpp"
#include "nn/encoder.hpp"
#include "nn/linear.hpp"
#include "nn/op_cost.hpp"
#include "nn/ops.hpp"
#include "nn/qlinear.hpp"
#include "obs/analyze.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/export.hpp"
#include "obs/json_writer.hpp"
#include "obs/manifest.hpp"
#include "obs/percentiles.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "platform/platform.hpp"
#include "runtime/batch_runner.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/workspace.hpp"
#include "sched/interconnect.hpp"
#include "search/anneal.hpp"
#include "search/design_point.hpp"
#include "search/design_space.hpp"
#include "search/evaluator.hpp"
#include "search/json_io.hpp"
#include "sched/shard_plan.hpp"
#include "sched/stage_allocation.hpp"
#include "serve/batch_former.hpp"
#include "serve/dispatch.hpp"
#include "serve/engine.hpp"
#include "serve/report.hpp"
#include "serve/service_model.hpp"
#include "serve/shard_service.hpp"
#include "tensor/kernels.hpp"
#include "tensor/lut_multiply.hpp"
#include "tensor/matmul.hpp"
#include "tensor/matrix.hpp"
#include "tensor/quantize.hpp"
#include "tensor/rng.hpp"
#include "workload/arrivals.hpp"
#include "workload/batch.hpp"
#include "workload/dataset.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace_io.hpp"
