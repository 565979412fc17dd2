#include "spans.hpp"

#include <atomic>
#include <cstdio>

namespace migbench {

namespace {

/// Innermost open Span on this thread: the default parent of new spans.
thread_local std::uint64_t t_current_span = 0;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

void append_escaped(std::string& out, const std::string& text) {
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}

}  // namespace

SpanLog& SpanLog::process() {
  static SpanLog log;
  return log;
}

std::uint64_t SpanLog::open() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

std::uint64_t SpanLog::record(std::uint64_t id, std::string name, Clock::time_point start,
                              Clock::time_point end, std::uint64_t parent) {
  if (!enabled_) return 0;
  if (parent == 0) parent = t_current_span;
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0) id = next_id_++;
  records_.push_back(SpanRecord{id, parent, thread_index(), std::move(name), start, end});
  return id;
}

std::string SpanLog::chrome_trace_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\":[";
  char buf[160];
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const SpanRecord& r = records_[i];
    if (i > 0) out += ',';
    out += "{\"name\":\"";
    append_escaped(out, r.name);
    std::snprintf(buf, sizeof buf,
                  "\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%llu,\"parent\":%llu}}",
                  r.tid, seconds_between(epoch_, r.start) * 1e6,
                  seconds_between(r.start, r.end) * 1e6,
                  static_cast<unsigned long long>(r.id),
                  static_cast<unsigned long long>(r.parent));
    out += buf;
  }
  out += "]}\n";
  return out;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  const std::string json = chrome_trace_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

Span::Span(std::string name)
    : name_(std::move(name)),
      parent_(t_current_span),
      id_(SpanLog::process().open()),
      start_(Clock::now()) {
  if (id_ != 0) t_current_span = id_;
}

Span::~Span() {
  if (id_ == 0) return;
  t_current_span = parent_;
  SpanLog::process().record(id_, std::move(name_), start_, Clock::now(), parent_);
}

}  // namespace migbench
