#include "obs/chrome_trace.hpp"

#include "obs/json_writer.hpp"

namespace latte::obs {
namespace {

constexpr double kMicros = 1e6;  // virtual seconds -> trace-event µs

void CommonFields(JsonWriter& json, const TraceEvent& e) {
  json.Key("ts").Value(e.begin_s * kMicros);
  json.Key("pid").Value(std::size_t{0});
  json.Key("tid").Value(static_cast<std::size_t>(e.track));
}

void ArgsBlock(JsonWriter& json, const TraceEvent& e) {
  json.Key("args");
  json.BeginObject();
  json.Key("id").Value(static_cast<std::size_t>(e.id));
  json.Key("arg").Value(static_cast<double>(e.arg));
  json.EndObject();
}

}  // namespace

void WriteChromeTrace(const Tracer& tracer, JsonWriter& json) {
  json.BeginObject();
  json.Key("traceEvents");
  json.BeginArray();

  // Track-name metadata first: one process, one named thread per track.
  json.BeginObject();
  json.Key("name").Value("process_name");
  json.Key("ph").Value("M");
  json.Key("pid").Value(std::size_t{0});
  json.Key("args");
  json.BeginObject().Key("name").Value("latte").EndObject();
  json.EndObject();
  for (const auto& [track, name] : tracer.tracks()) {
    json.BeginObject();
    json.Key("name").Value("thread_name");
    json.Key("ph").Value("M");
    json.Key("pid").Value(std::size_t{0});
    json.Key("tid").Value(static_cast<std::size_t>(track));
    json.Key("args");
    json.BeginObject().Key("name").Value(name).EndObject();
    json.EndObject();
  }

  for (const TraceEvent& e : tracer.Merged()) {
    if (e.kind == SpanKind::kService) {
      // Batch executions overlap on a worker track only through the
      // virtual-time model's eyes (launch of batch N+1 can equal the
      // completion instant of batch N), so emit them as async slices --
      // the trace-event phase that tolerates abutting intervals.
      json.BeginObject();
      json.Key("name").Value("batch");
      json.Key("cat").Value("batch");
      json.Key("ph").Value("b");
      json.Key("id").Value(static_cast<std::size_t>(e.id));
      CommonFields(json, e);
      ArgsBlock(json, e);
      json.EndObject();
      json.BeginObject();
      json.Key("name").Value("batch");
      json.Key("cat").Value("batch");
      json.Key("ph").Value("e");
      json.Key("id").Value(static_cast<std::size_t>(e.id));
      json.Key("ts").Value(e.end_s * kMicros);
      json.Key("pid").Value(std::size_t{0});
      json.Key("tid").Value(static_cast<std::size_t>(e.track));
      json.EndObject();
      continue;
    }
    json.BeginObject();
    json.Key("name").Value(SpanKindName(e.kind));
    json.Key("cat").Value("lifecycle");
    if (e.end_s > e.begin_s) {
      json.Key("ph").Value("X");
      json.Key("dur").Value((e.end_s - e.begin_s) * kMicros);
    } else {
      json.Key("ph").Value("i");
      json.Key("s").Value("t");
    }
    CommonFields(json, e);
    ArgsBlock(json, e);
    json.EndObject();
  }

  json.EndArray();
  json.Key("displayTimeUnit").Value("ms");
  json.Key("otherData");
  json.BeginObject();
  json.Key("dropped_events")
      .Value(static_cast<std::size_t>(tracer.total_dropped()));
  json.EndObject();
  json.EndObject();
}

std::string ChromeTraceJson(const Tracer& tracer) {
  JsonWriter json;
  WriteChromeTrace(tracer, json);
  return json.str();
}

}  // namespace latte::obs
