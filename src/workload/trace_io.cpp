#include "workload/trace_io.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "obs/json_writer.hpp"
#include "search/json_io.hpp"

namespace latte {
namespace {

std::string HexId(std::uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(id));
  return buf;
}

std::uint64_t ParseHexId(const std::string& text) {
  if (text.size() < 3 || text[0] != '0' || text[1] != 'x') {
    throw std::invalid_argument("lattetrace: record id is not a 0x... hex string: " +
                                text);
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str() + 2, &end, 16);
  if (errno != 0 || end == text.c_str() + 2 || *end != '\0') {
    throw std::invalid_argument("lattetrace: malformed record id: " + text);
  }
  return v;
}

}  // namespace

std::string TraceToJson(const std::vector<TimedRequest>& trace) {
  obs::JsonWriter json;
  json.BeginObject();
  json.Key("magic").Value(kTraceMagic);
  json.Key("version").Value(kTraceVersion);
  json.Key("requests").Value(trace.size());
  json.Key("records");
  json.BeginArray();
  for (const TimedRequest& r : trace) {
    json.BeginObject();
    json.Key("arrival_s").ValueExact(r.arrival_s);
    json.Key("length").Value(r.length);
    json.Key("id").Value(HexId(r.id));
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

std::vector<TimedRequest> TraceFromJson(std::string_view text) {
  const search::JsonValue doc = search::ParseJson(text);
  const search::JsonValue* magic = doc.Find("magic");
  if (magic == nullptr || magic->AsString("magic") != kTraceMagic) {
    throw std::invalid_argument("lattetrace: missing or wrong magic");
  }
  const std::size_t version = doc.Get("version").AsSize("version");
  if (version != kTraceVersion) {
    throw std::invalid_argument("lattetrace: unknown version " +
                                std::to_string(version));
  }
  const std::size_t count = doc.Get("requests").AsSize("requests");
  const search::JsonValue& records = doc.Get("records");
  if (records.kind != search::JsonValue::Kind::kArray) {
    throw std::invalid_argument("lattetrace: records is not an array");
  }
  if (records.array.size() != count) {
    throw std::invalid_argument("lattetrace: requests count does not match records");
  }
  std::vector<TimedRequest> trace;
  trace.reserve(records.array.size());
  for (const search::JsonValue& rec : records.array) {
    TimedRequest r;
    r.arrival_s = rec.Get("arrival_s").AsNumber("arrival_s");
    if (!std::isfinite(r.arrival_s)) {
      throw std::invalid_argument("lattetrace: arrival_s is not finite");
    }
    r.length = rec.Get("length").AsSize("length");
    r.id = ParseHexId(rec.Get("id").AsString("id"));
    trace.push_back(r);
  }
  return trace;
}

bool CaptureTrace(const std::vector<TimedRequest>& trace,
                  const std::string& path) {
  obs::JsonWriter json;
  json.Raw(TraceToJson(trace));
  return json.WriteFile(path);
}

std::vector<TimedRequest> LoadTrace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw std::invalid_argument("lattetrace: cannot read " + path + ": " +
                                std::strerror(errno));
  }
  std::string text;
  char buf[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, got);
  }
  std::fclose(f);
  return TraceFromJson(text);
}

bool TryLoadTrace(const std::string& path, std::vector<TimedRequest>& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  out = LoadTrace(path);
  return true;
}

}  // namespace latte
