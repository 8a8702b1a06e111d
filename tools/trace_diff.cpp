// trace_diff: stage-level forensics between two breakdown JSON files.
//
//   trace_diff BASELINE.json CURRENT.json [--tol-ms T]
//
// Both inputs are LatencyBreakdown documents (obs/analyze's
// WriteBreakdownJson: BREAKDOWN_obs.json from bench_obs, or
// obs_demo_breakdown.json from the example).  The diff answers the
// question a bare perf-gate delta cannot: *which stage* moved.  For each
// stage (and each track group of a fleet breakdown) it tabulates the
// baseline/current p99 and total, then prints one attribution line --
// "p99 +2.100 ms, 87% from queue_wait on r1" -- naming the stage (and
// group) that absorbs the p99 movement.  With --tol-ms the exit status
// gates: 1 when the end-to-end p99 grew by more than T milliseconds,
// 0 otherwise.  CI runs it next to bench/check_regression.py, whose
// BREAKDOWN_obs.json entry gates the same files stage by stage; this
// tool is the one place the attribution line is computed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "search/json_io.hpp"

namespace {

using latte::search::JsonValue;
using latte::search::ParseJson;

struct StageRow {
  std::string stage;
  double base_p99_ms = 0;
  double cur_p99_ms = 0;
  double base_total_ms = 0;
  double cur_total_ms = 0;
  bool in_base = false;
  bool in_cur = false;
};

// Merges one breakdown's "stages" array into `rows` (by stage name,
// preserving first-seen order -- the Stage order both sides emit).
void FoldStages(const JsonValue& doc, bool current,
                std::vector<StageRow>& rows) {
  const JsonValue& stages = doc.Get("stages");
  for (const JsonValue& s : stages.array) {
    const std::string& name = s.Get("stage").AsString("stage");
    StageRow* row = nullptr;
    for (StageRow& r : rows) {
      if (r.stage == name) {
        row = &r;
        break;
      }
    }
    if (row == nullptr) {
      rows.push_back({});
      row = &rows.back();
      row->stage = name;
    }
    const double p99 = s.Get("p99_ms").AsNumber("p99_ms");
    const double total = s.Get("total_ms").AsNumber("total_ms");
    if (current) {
      row->cur_p99_ms = p99;
      row->cur_total_ms = total;
      row->in_cur = true;
    } else {
      row->base_p99_ms = p99;
      row->base_total_ms = total;
      row->in_base = true;
    }
  }
}

double P99Ms(const JsonValue& doc) {
  return doc.Get("end_to_end").Get("p99_ms").AsNumber("p99_ms");
}

// The attribution line: which stage (and, for fleet breakdowns, which
// group) absorbs the p99 movement.  Shares are the stage p99 deltas
// normalized by their absolute sum, so they describe where the change
// concentrates even when stages moved in opposite directions.
std::string AttributionLine(const JsonValue& base, const JsonValue& cur) {
  const double delta_ms = P99Ms(cur) - P99Ms(base);
  std::vector<StageRow> rows;
  FoldStages(base, /*current=*/false, rows);
  FoldStages(cur, /*current=*/true, rows);
  double abs_sum = 0;
  const StageRow* dominant = nullptr;
  double dominant_abs = 0;
  for (const StageRow& r : rows) {
    const double d = std::fabs(r.cur_p99_ms - r.base_p99_ms);
    abs_sum += d;
    if (d > dominant_abs) {
      dominant_abs = d;
      dominant = &r;
    }
  }
  char buf[160];
  if (dominant == nullptr || abs_sum == 0) {
    std::snprintf(buf, sizeof(buf), "p99 %+.3f ms, no stage moved",
                  delta_ms);
    return buf;
  }
  std::string where = dominant->stage;
  // Refine with the group whose copy of the dominant stage moved most.
  const JsonValue* base_groups = base.Find("groups");
  const JsonValue* cur_groups = cur.Find("groups");
  if (base_groups != nullptr && cur_groups != nullptr &&
      !cur_groups->array.empty()) {
    double best = 0;
    std::string best_group;
    for (const JsonValue& cg : cur_groups->array) {
      const std::string& label = cg.Get("group").AsString("group");
      const JsonValue* bg = nullptr;
      for (const JsonValue& candidate : base_groups->array) {
        if (candidate.Get("group").AsString("group") == label) {
          bg = &candidate;
          break;
        }
      }
      if (bg == nullptr) continue;
      std::vector<StageRow> grows;
      FoldStages(*bg, /*current=*/false, grows);
      FoldStages(cg, /*current=*/true, grows);
      for (const StageRow& r : grows) {
        if (r.stage != dominant->stage) continue;
        const double d = std::fabs(r.cur_p99_ms - r.base_p99_ms);
        if (d > best) {
          best = d;
          best_group = label;
        }
      }
    }
    if (!best_group.empty()) where += " on " + best_group;
  }
  std::snprintf(buf, sizeof(buf), "p99 %+.3f ms, %.0f%% from %s", delta_ms,
                100.0 * dominant_abs / abs_sum, where.c_str());
  return buf;
}

void PrintTable(const JsonValue& base, const JsonValue& cur,
                const char* label) {
  std::vector<StageRow> rows;
  FoldStages(base, /*current=*/false, rows);
  FoldStages(cur, /*current=*/true, rows);
  if (rows.empty()) return;
  std::printf("%s\n", label);
  std::printf("  %-18s %12s %12s %10s %12s %12s\n", "stage", "base p99",
              "cur p99", "delta", "base total", "cur total");
  for (const StageRow& r : rows) {
    if (!r.in_base || !r.in_cur) {
      std::printf("  %-18s %12s %12s %10s\n", r.stage.c_str(),
                  r.in_base ? "present" : "-", r.in_cur ? "present" : "-",
                  "NEW/GONE");
      continue;
    }
    std::printf("  %-18s %9.3f ms %9.3f ms %+7.3f ms %9.3f ms %9.3f ms\n",
                r.stage.c_str(), r.base_p99_ms, r.cur_p99_ms,
                r.cur_p99_ms - r.base_p99_ms, r.base_total_ms,
                r.cur_total_ms);
  }
}

std::string ReadFileOrDie(const char* path) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "trace_diff: cannot read %s\n", path);
    std::exit(2);
  }
  std::string text;
  char buf[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, got);
  std::fclose(f);
  return text;
}

}  // namespace

int main(int argc, char** argv) {
  const char* base_path = nullptr;
  const char* cur_path = nullptr;
  double tol_ms = -1;  // < 0: report-only, never gate
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tol-ms") == 0 && i + 1 < argc) {
      tol_ms = std::atof(argv[++i]);
    } else if (base_path == nullptr) {
      base_path = argv[i];
    } else if (cur_path == nullptr) {
      cur_path = argv[i];
    } else {
      std::fprintf(stderr,
                   "usage: trace_diff BASELINE.json CURRENT.json [--tol-ms T]\n");
      return 2;
    }
  }
  if (base_path == nullptr || cur_path == nullptr) {
    std::fprintf(stderr,
                 "usage: trace_diff BASELINE.json CURRENT.json [--tol-ms T]\n");
    return 2;
  }

  JsonValue base, cur;
  try {
    base = ParseJson(ReadFileOrDie(base_path));
    cur = ParseJson(ReadFileOrDie(cur_path));
    const double base_p99 = P99Ms(base);
    const double cur_p99 = P99Ms(cur);
    const double delta_ms = cur_p99 - base_p99;
    std::printf("trace_diff: %s vs %s\n", base_path, cur_path);
    std::printf("  requests %zu -> %zu, p99 %.3f ms -> %.3f ms\n",
                static_cast<std::size_t>(
                    base.Get("requests").AsNumber("requests")),
                static_cast<std::size_t>(
                    cur.Get("requests").AsNumber("requests")),
                base_p99, cur_p99);
    std::printf("  %s\n\n", AttributionLine(base, cur).c_str());
    PrintTable(base, cur, "overall");
    const JsonValue* base_groups = base.Find("groups");
    const JsonValue* cur_groups = cur.Find("groups");
    if (base_groups != nullptr && cur_groups != nullptr) {
      for (const JsonValue& cg : cur_groups->array) {
        const std::string& label = cg.Get("group").AsString("group");
        for (const JsonValue& bg : base_groups->array) {
          if (bg.Get("group").AsString("group") != label) continue;
          std::printf("\n");
          PrintTable(bg, cg, ("group " + label).c_str());
          break;
        }
      }
    }
    const JsonValue* cp = cur.Find("critical_path");
    if (cp != nullptr && cp->kind == JsonValue::Kind::kString &&
        !cp->string.empty()) {
      std::printf("\ncritical path (current): %s\n", cp->string.c_str());
    }
    if (tol_ms >= 0 && delta_ms > tol_ms) {
      std::fprintf(stderr,
                   "trace_diff: p99 regressed %+.3f ms (tolerance %.3f ms)\n",
                   delta_ms, tol_ms);
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_diff: %s\n", e.what());
    return 2;
  }
  return 0;
}
