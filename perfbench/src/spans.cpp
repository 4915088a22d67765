#include "spans.h"

#include <cstdio>
#include <cstring>

#include "common/check.h"

namespace perfbench {

std::size_t SpanLog::begin(const char* name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  s.trace = trace_;
  s.start_ns = now_ns();
  spans_.push_back(s);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::end(std::size_t index) {
  const std::uint64_t t = now_ns();
  ANUFS_EXPECTS(!open_.empty() && open_.back() == index);
  open_.pop_back();
  spans_[index].end_ns = t;
}

double SpanLog::total_seconds(const char* name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) total += s.seconds();
  }
  return total;
}

double SpanLog::self_seconds(const char* name) const {
  double total = total_seconds(name);
  for (const Span& s : spans_) {
    if (s.parent >= 0 &&
        std::strcmp(spans_[static_cast<std::size_t>(s.parent)].name, name) ==
            0) {
      total -= s.seconds();
    }
  }
  return total;
}

std::size_t SpanLog::count(const char* name) const {
  std::size_t n = 0;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) ++n;
  }
  return n;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"parent\":%lld,\"trace\":%llu}\n",
                 s.name, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.trace));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
