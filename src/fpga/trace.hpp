#pragma once
// Schedule export: Chrome trace-event JSON (load in chrome://tracing or
// Perfetto).

#include "fpga/pipeline_sim.hpp"
#include "obs/json_writer.hpp"

namespace latte {

/// Serializes a schedule as a Chrome trace-event JSON document.
/// Stages map to "processes" named "stage 1", "stage 2", ..., each with
/// one thread; each job becomes a complete ("X") event with microsecond
/// timestamps.  Write it out with JsonWriter::WriteFile.
obs::JsonWriter ToChromeTrace(const ScheduleResult& schedule);

}  // namespace latte
