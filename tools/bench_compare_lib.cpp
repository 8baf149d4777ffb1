#include "bench_compare_lib.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "support/json.h"

namespace fullweb::benchcmp {

using support::Error;
using support::JsonArray;
using support::JsonObject;
using support::JsonValue;
using support::Result;

Result<BenchMap> parse_results(const std::string& text,
                               const std::string& metric) {
  const auto doc = support::json_parse(text);
  if (!doc) return Error::parse("bench_compare: malformed JSON");
  const JsonValue* benchmarks = doc->find("benchmarks");
  const JsonArray* arr = benchmarks ? benchmarks->array() : nullptr;
  if (arr == nullptr)
    return Error::parse("bench_compare: document has no \"benchmarks\" array");

  BenchMap out;
  for (const JsonValue& entry : *arr) {
    const JsonObject* bench = entry.object();
    if (bench == nullptr) continue;
    auto field = [&](const char* key) -> std::optional<double> {
      auto it = bench->find(key);
      if (it == bench->end()) return std::nullopt;
      return it->second.number();
    };
    auto sfield = [&](const char* key) -> std::string {
      auto it = bench->find(key);
      if (it == bench->end()) return {};
      return it->second.string().value_or("");
    };
    const std::string name = sfield("name");
    if (name.empty()) continue;
    if (!sfield("aggregate_name").empty()) continue;
    auto time = field(metric.c_str());
    if (!time) time = field("real_time");
    if (!time) continue;
    double ns = *time;
    const std::string unit = sfield("time_unit");
    if (unit == "us") ns *= 1e3;
    else if (unit == "ms") ns *= 1e6;
    else if (unit == "s") ns *= 1e9;
    BenchResult r;
    r.time = ns;
    r.items_per_second = field("items_per_second").value_or(0.0);
    out[name] = r;
  }
  return out;
}

Result<BenchMap> load_results(const std::string& path,
                              const std::string& metric) {
  std::ifstream in(path);
  if (!in) return Error::parse("bench_compare: cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto parsed = parse_results(buffer.str(), metric);
  if (!parsed.ok())
    return Error::parse(parsed.error().message + " (" + path + ")");
  return parsed;
}

CompareReport compare(const BenchMap& baseline, const BenchMap& fresh,
                      double threshold) {
  CompareReport report;
  for (const auto& [name, base] : baseline) {
    CompareRow row;
    row.name = name;
    row.base_time = base.time;
    const auto it = fresh.find(name);
    if (it == fresh.end()) {
      row.verdict = Verdict::kMissing;
      ++report.missing;
      report.rows.push_back(std::move(row));
      continue;
    }
    ++report.compared;
    row.new_time = it->second.time;
    row.ratio = base.time > 0.0 ? it->second.time / base.time : 0.0;
    if (row.ratio > 1.0 + threshold) {
      row.verdict = Verdict::kRegression;
      ++report.regressions;
    } else if (row.ratio < 1.0 - threshold) {
      row.verdict = Verdict::kImproved;
    }
    report.rows.push_back(std::move(row));
  }
  for (const auto& [name, result] : fresh) {
    if (baseline.find(name) != baseline.end()) continue;
    CompareRow row;
    row.name = name;
    row.new_time = result.time;
    row.verdict = Verdict::kNew;
    report.rows.push_back(std::move(row));
  }
  return report;
}

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
  if (context == nullptr) return {};
  for (const char* key : {"binary_build_type", "library_build_type"}) {
    if (const JsonValue* v = context->find(key)) {
      const auto s = v->string();
      if (s && !s->empty()) return *s;
    }
  }
  return {};
}

bool is_debug_build(const std::string& text) {
  return detect_build_type(text) == "debug";
}

std::string render(const CompareReport& report, double threshold) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line, "%-40s %14s %14s %8s  %s\n", "benchmark",
                "base (ns)", "new (ns)", "ratio", "verdict");
  out += line;
  for (const CompareRow& row : report.rows) {
    switch (row.verdict) {
      case Verdict::kMissing:
        std::snprintf(line, sizeof line, "%-40s %14.0f %14s %8s  MISSING in new run\n",
                      row.name.c_str(), row.base_time, "-", "-");
        break;
      case Verdict::kNew:
        std::snprintf(line, sizeof line, "%-40s %14s %14.0f %8s  new benchmark\n",
                      row.name.c_str(), "-", row.new_time, "-");
        break;
      default: {
        const char* verdict = row.verdict == Verdict::kRegression ? "REGRESSION"
                              : row.verdict == Verdict::kImproved ? "improved"
                                                                  : "ok";
        std::snprintf(line, sizeof line, "%-40s %14.0f %14.0f %7.3fx  %s\n",
                      row.name.c_str(), row.base_time, row.new_time, row.ratio,
                      verdict);
      }
    }
    out += line;
  }
  std::snprintf(line, sizeof line,
                "\n%d/%d benchmarks within %.0f%%; %d regression(s), %d missing\n",
                report.compared - report.regressions, report.compared,
                threshold * 100.0, report.regressions, report.missing);
  out += line;
  return out;
}

}  // namespace fullweb::benchcmp
