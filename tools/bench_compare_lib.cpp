#include "bench_compare_lib.h"

#include <cstdio>

#include "support/json.h"

namespace fullweb::benchcmp {

using support::Error;
using support::JsonArray;
using support::JsonObject;
using support::JsonValue;
using support::Result;

Result<SpeedupReport> check_min_speedup(const std::string& text,
                                        double min_speedup,
                                        const std::string& name_filter) {
  const auto doc = support::json_parse(text);
  if (!doc) return Error::parse("bench_compare: malformed JSON");
  const JsonValue* benchmarks = doc->find("benchmarks");
  const JsonArray* arr = benchmarks ? benchmarks->array() : nullptr;
  if (arr == nullptr)
    return Error::parse("bench_compare: document has no \"benchmarks\" array");

  SpeedupReport report;
  for (const JsonValue& entry : *arr) {
    const JsonObject* bench = entry.object();
    if (bench == nullptr) continue;
    const JsonValue* name_v = entry.find("name");
    const std::string name = name_v ? name_v->string().value_or("") : "";
    if (name.empty()) continue;
    if (!name_filter.empty() && name.find(name_filter) == std::string::npos)
      continue;
    SpeedupRow row;
    row.name = name;
    if (const JsonValue* speedup_v = entry.find("speedup"))
      row.speedup = speedup_v->number();
    if (row.speedup) {
      row.pass = *row.speedup >= min_speedup;
      ++report.checked;
      if (!row.pass) ++report.failures;
    }
    report.rows.push_back(std::move(row));
  }
  return report;
}

std::string render_speedup(const SpeedupReport& report, double min_speedup,
                           const std::string& name_filter) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line, "%-40s %10s  %s\n", "benchmark", "speedup",
                "verdict");
  out += line;
  for (const SpeedupRow& row : report.rows) {
    if (row.speedup) {
      std::snprintf(line, sizeof line, "%-40s %9.2fx  %s\n", row.name.c_str(),
                    *row.speedup, row.pass ? "ok" : "BELOW FLOOR");
    } else {
      std::snprintf(line, sizeof line, "%-40s %10s  not measured\n",
                    row.name.c_str(), "-");
    }
    out += line;
  }
  if (report.rows.empty()) {
    std::snprintf(line, sizeof line, "no benchmarks matching \"%s\"\n",
                  name_filter.c_str());
    out += line;
  } else if (report.skipped()) {
    std::snprintf(line, sizeof line,
                  "\nSKIPPED: benchmarks matching \"%s\" not measured on this "
                  "host\n",
                  name_filter.c_str());
    out += line;
    return out;
  }
  std::snprintf(line, sizeof line,
                "\n%d/%d benchmark(s) at or above %.2fx; %d below\n",
                report.checked - report.failures, report.checked, min_speedup,
                report.failures);
  out += line;
  return out;
}

std::string detect_build_type(const std::string& text) {
  const auto doc = support::json_parse(text);
  if (!doc) return {};
  const JsonValue* context = doc->find("context");
  const JsonValue* stamp =
      context ? context->find("binary_build_type") : nullptr;
  return stamp ? stamp->string().value_or("") : "";
}

}  // namespace fullweb::benchcmp
