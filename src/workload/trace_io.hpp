#pragma once
// Versioned on-disk capture/replay of TimedRequest streams.
//
// A `.lattetrace` file is one JSON document (magic + version + request
// records) written by the shared obs/json_writer and read back through
// the same recursive-descent parser DesignPoint baselines use
// (search/json_io).  Arrival times are emitted with ValueExact (%.17g),
// so they re-parse to the same bits; content ids are hex strings because
// a uint64 -- kAnonymousId in particular -- does not survive a JSON
// double.  Capture -> load is therefore bit-exact: a trace recorded once
// under bench/traces/ replays identically across engines, clusters,
// twins and future PRs, and TraceToJson(LoadTrace(p)) reproduces the
// file byte for byte.

#include <string>
#include <string_view>
#include <vector>

#include "workload/arrivals.hpp"

namespace latte {

/// First bytes of every capture; a file without it is not a trace.
inline constexpr std::string_view kTraceMagic = "lattetrace";
/// Format version this build writes (and the only one it reads).  Bump
/// on any schema change; readers reject unknown versions loudly.
inline constexpr std::size_t kTraceVersion = 1;

/// Serializes the trace as one `.lattetrace` JSON document (no trailing
/// newline; WriteFile appends one).  Byte-deterministic.
std::string TraceToJson(const std::vector<TimedRequest>& trace);

/// Parses a `.lattetrace` document.  Throws std::invalid_argument naming
/// what is wrong (bad magic, unknown version, malformed record, a
/// non-finite arrival_s) -- a
/// capture that does not reproduce exactly is a corrupt baseline, not a
/// soft failure.
std::vector<TimedRequest> TraceFromJson(std::string_view text);

/// Writes `trace` to `path`; returns false (and prints to stderr) when
/// the file cannot be written.
bool CaptureTrace(const std::vector<TimedRequest>& trace,
                  const std::string& path);

/// Reads and parses `path`.  Throws std::invalid_argument when the file
/// cannot be read or is not a valid capture.
std::vector<TimedRequest> LoadTrace(const std::string& path);

/// Like LoadTrace, but an absent/unreadable file returns false instead
/// of throwing (the bench fallback: regenerate when the canonical
/// capture is missing).  Malformed content still throws.
bool TryLoadTrace(const std::string& path, std::vector<TimedRequest>& out);

}  // namespace latte
