#include "fpga/trace.hpp"

#include <fstream>
#include <sstream>

namespace latte {
namespace {

const char* StageName(std::size_t stage) {
  switch (stage) {
    case 0: return "MM|At-Sel";
    case 1: return "At-Comp";
    case 2: return "FdFwd";
    default: return "Stage";
  }
}

}  // namespace

std::string ToChromeTrace(const ScheduleResult& schedule) {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  // Process-name metadata per stage.
  std::size_t max_stage = 0;
  for (const auto& j : schedule.jobs) max_stage = std::max(max_stage, j.stage);
  for (std::size_t s = 0; s <= max_stage; ++s) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << s
       << ",\"args\":{\"name\":\"" << StageName(s) << "\"}}";
  }
  for (const auto& j : schedule.jobs) {
    os << ",{\"name\":\"seq" << j.seq << " L" << j.layer
       << "\",\"ph\":\"X\",\"pid\":" << j.stage
       << ",\"tid\":0,\"ts\":" << j.start * 1e6 << ",\"dur\":"
       << (j.end - j.start) * 1e6 << ",\"args\":{\"seq\":" << j.seq
       << ",\"layer\":" << j.layer << "}}";
  }
  os << "]}";
  return os.str();
}

bool WriteTextFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

}  // namespace latte
