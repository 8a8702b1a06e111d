#include "fpga/trace.hpp"

#include <string>

namespace latte {

obs::JsonWriter ToChromeTrace(const ScheduleResult& schedule) {
  obs::JsonWriter json;
  json.BeginObject().Key("traceEvents").BeginArray();
  for (std::size_t s = 0; s < schedule.stage_busy.size(); ++s) {
    json.BeginObject();
    json.Key("name").Value("process_name");
    json.Key("ph").Value("M");
    json.Key("pid").Value(s);
    json.Key("args").BeginObject();
    json.Key("name").Value("stage " + std::to_string(s + 1));
    json.EndObject().EndObject();
  }
  for (const auto& j : schedule.jobs) {
    json.BeginObject();
    json.Key("name").Value("seq" + std::to_string(j.seq) + " L" +
                           std::to_string(j.layer));
    json.Key("ph").Value("X");
    json.Key("pid").Value(j.stage);
    json.Key("tid").Value(std::size_t{0});
    json.Key("ts").Value(j.start * 1e6);
    json.Key("dur").Value((j.end - j.start) * 1e6);
    json.Key("args").BeginObject();
    json.Key("seq").Value(j.seq);
    json.Key("layer").Value(j.layer);
    json.EndObject().EndObject();
  }
  json.EndArray().EndObject();
  return json;
}

}  // namespace latte
