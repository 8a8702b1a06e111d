#pragma once
// Schedule export: Chrome trace-event JSON (load in chrome://tracing or
// Perfetto).

#include <string>

#include "fpga/pipeline_sim.hpp"

namespace latte {

/// Serializes a schedule as a Chrome trace-event JSON document.
/// Stages map to "processes", each with one thread; each job becomes a
/// complete ("X") event with microsecond timestamps.
std::string ToChromeTrace(const ScheduleResult& schedule);

/// Writes `content` to `path`; returns false on I/O failure.
bool WriteTextFile(const std::string& path, const std::string& content);

}  // namespace latte
