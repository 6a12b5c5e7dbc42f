#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>

namespace tasqbench {

int32_t SpanLog::Add(const char* name, int64_t start_ns, int64_t end_ns,
                     int32_t parent, int64_t request) {
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return static_cast<int32_t>(spans_.size() - 1);
}

int32_t SpanLog::Begin(const char* name, int32_t parent, int64_t request) {
  int64_t now = Ns(Clock::now());
  return Add(name, now, now, parent, request);
}

void SpanLog::End(int32_t id) {
  spans_[static_cast<size_t>(id)].end_ns = Ns(Clock::now());
}

void SpanLog::Append(const SpanLog& other) {
  int32_t base = static_cast<int32_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
}

std::vector<LayerTime> SelfTimes(const std::vector<Span>& spans) {
  // Children of each span, as intervals; their union is subtracted.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                              span.end_ns);
    }
  }
  std::map<std::string, LayerTime> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = span.start_ns;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, span.end_ns);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    LayerTime& row = by_name[span.name];
    row.name = span.name;
    ++row.count;
    row.total_ns += static_cast<double>(span.end_ns - span.start_ns);
    row.self_ns += static_cast<double>(span.end_ns - span.start_ns - covered);
  }
  std::vector<LayerTime> rows;
  for (auto& [name, row] : by_name) rows.push_back(row);
  std::sort(rows.begin(), rows.end(),
            [](const LayerTime& a, const LayerTime& b) {
              return a.self_ns > b.self_ns;
            });
  return rows;
}

double MeanNs(const std::vector<Span>& spans, const char* name) {
  double total = 0.0;
  uint64_t count = 0;
  for (const Span& span : spans) {
    if (std::strcmp(span.name, name) == 0) {
      total += static_cast<double>(span.end_ns - span.start_ns);
      ++count;
    }
  }
  return count > 0 ? total / static_cast<double>(count) : 0.0;
}

std::string CheckNesting(const std::vector<Span>& spans) {
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    char message[256];
    if (span.end_ns < span.start_ns) {
      std::snprintf(message, sizeof(message), "span %zu (%s) ends before it starts",
                    i, span.name);
      return message;
    }
    if (span.parent < 0) continue;
    if (static_cast<size_t>(span.parent) >= spans.size() ||
        static_cast<size_t>(span.parent) == i) {
      std::snprintf(message, sizeof(message), "span %zu (%s) has invalid parent %d",
                    i, span.name, span.parent);
      return message;
    }
    const Span& parent = spans[static_cast<size_t>(span.parent)];
    if (span.start_ns < parent.start_ns || span.end_ns > parent.end_ns) {
      std::snprintf(message, sizeof(message),
                    "span %zu (%s) [%lld, %lld] escapes parent %s [%lld, %lld]",
                    i, span.name, static_cast<long long>(span.start_ns),
                    static_cast<long long>(span.end_ns), parent.name,
                    static_cast<long long>(parent.start_ns),
                    static_cast<long long>(parent.end_ns));
      return message;
    }
  }
  return "";
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& span : spans) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"request\":%lld}\n",
                 span.name, static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns), span.parent,
                 static_cast<long long>(span.request));
  }
  return std::fclose(out) == 0;
}

void PrintSelfTimes(const char* title, const std::vector<LayerTime>& rows) {
  double total_self = 0.0;
  for (const LayerTime& row : rows) total_self += row.self_ns;
  std::printf("%s\n  %-26s %9s %14s %14s %7s\n", title, "span", "count",
              "mean self us", "mean total us", "self%");
  for (const LayerTime& row : rows) {
    double n = static_cast<double>(row.count);
    std::printf("  %-26s %9llu %14.3f %14.3f %6.1f%%\n", row.name.c_str(),
                static_cast<unsigned long long>(row.count),
                row.self_ns / n / 1e3, row.total_ns / n / 1e3,
                total_self > 0.0 ? 100.0 * row.self_ns / total_self : 0.0);
  }
}

}  // namespace tasqbench
