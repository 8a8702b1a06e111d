#pragma once
// Minimal streaming JSON writer shared by library exporters and the bench
// binaries.  Promoted from bench/json_writer.hpp (which now forwards
// here) so the observability layer -- Chrome trace export, metrics
// snapshots, run manifests -- and the BENCH_*.json emitters share one
// writer.  No dependency; emits valid JSON only (non-finite numbers
// become null so jq never chokes on an overflowed measurement).

#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "tensor/kernels.hpp"

namespace latte::obs {

/// Writes `bytes` to `path` as they are, checking both the write and the
/// close (on a full disk only the close's flush fails).  Names the path
/// on stderr and returns false on any failure, so a caller exits non-zero
/// instead of leaving a truncated artifact behind.
inline bool WriteBytes(const std::string& path, std::string_view bytes) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr;
  if (ok) {
    ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    ok = std::fclose(f) == 0 && ok;
  }
  if (!ok) std::fprintf(stderr, "cannot write %s\n", path.c_str());
  return ok;
}

class JsonWriter {
 public:
  JsonWriter& BeginObject() {
    Prefix();
    out_ += '{';
    pending_comma_.push_back(false);
    return *this;
  }
  JsonWriter& EndObject() {
    pending_comma_.pop_back();
    out_ += '}';
    return *this;
  }
  JsonWriter& BeginArray() {
    Prefix();
    out_ += '[';
    pending_comma_.push_back(false);
    return *this;
  }
  JsonWriter& EndArray() {
    pending_comma_.pop_back();
    out_ += ']';
    return *this;
  }
  JsonWriter& Key(std::string_view key) {
    Prefix();
    AppendString(key);
    out_ += ':';
    pending_comma_.back() = false;
    return *this;
  }
  JsonWriter& Value(std::string_view v) {
    Prefix();
    AppendString(v);
    return *this;
  }
  JsonWriter& Value(const char* v) { return Value(std::string_view(v)); }
  JsonWriter& Value(double v) {
    Prefix();
    if (!std::isfinite(v)) {
      out_ += "null";
    } else {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.9g", v);
      out_ += buf;
    }
    return *this;
  }
  /// Shortest round-trippable representation of `v`: %.17g always
  /// re-parses to the same bits, so configs serialized with this survive
  /// an emit/parse cycle exactly (the DesignPoint JSON contract).
  JsonWriter& ValueExact(double v) {
    Prefix();
    if (!std::isfinite(v)) {
      out_ += "null";
    } else {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out_ += buf;
    }
    return *this;
  }
  JsonWriter& Value(std::size_t v) {
    Prefix();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& Value(bool v) {
    Prefix();
    out_ += v ? "true" : "false";
    return *this;
  }
  /// Splices an already-serialized JSON value verbatim (a config block
  /// produced by another writer, e.g. DesignPointToJson).  The caller owns
  /// its validity -- the run-manifest emitter uses this to embed config
  /// JSON without re-parsing it.
  JsonWriter& Raw(std::string_view json) {
    Prefix();
    out_ += json;
    return *this;
  }

  const std::string& str() const { return out_; }

  /// Writes the document to `path` followed by a newline; returns false
  /// (and prints to stderr) when the file cannot be opened, written or
  /// closed -- a full disk shows only at the close's flush.
  bool WriteFile(const std::string& path) const {
    return WriteBytes(path, out_ + '\n');
  }

 private:
  void Prefix() {
    if (pending_comma_.empty()) return;
    if (pending_comma_.back()) out_ += ',';
    pending_comma_.back() = true;
  }
  void AppendString(std::string_view s) {
    out_ += '"';
    for (char c : s) {
      switch (c) {
        case '"':
          out_ += "\\\"";
          break;
        case '\\':
          out_ += "\\\\";
          break;
        case '\n':
          out_ += "\\n";
          break;
        case '\t':
          out_ += "\\t";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out_ += buf;
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> pending_comma_;
};

/// Compiler identity baked in at build time ("gcc 13.2.0"-style).
inline std::string CompilerId() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Stamps the "host" block every BENCH_*.json (and run manifest) carries:
/// which micro-kernel ISA was compiled in, how many hardware threads the
/// machine has, which compiler built the binary.  Recorded baselines are
/// only comparable between matching stamps, so check_regression can
/// attribute a drift to a host change instead of a code change.  Call
/// right after the schema_version key (inside the root object).
inline void StampHost(JsonWriter& json) {
  json.Key("host");
  json.BeginObject();
  json.Key("kernel_arch").Value(KernelArchName());
  json.Key("hardware_threads")
      .Value(static_cast<std::size_t>(std::thread::hardware_concurrency()));
  json.Key("compiler").Value(CompilerId());
  json.EndObject();
}

}  // namespace latte::obs
