#include "obs/metrics.hpp"

#include <stdexcept>

namespace chordal::obs {

namespace {

thread_local Registry* g_current = nullptr;

void write_span(JsonWriter& w, const SpanNode& node) {
  w.begin_object();
  w.key("name").value(node.name);
  w.key("wall_ms").value(node.wall_ms);
  w.key("rounds").value(node.rounds);
  w.key("messages").value(node.messages);
  w.key("payload_words").value(node.payload_words);
  w.key("notes");
  w.begin_object();
  for (const auto& [key, value] : node.notes) {
    w.key(key).value(value);
  }
  w.end_object();
  w.key("children");
  w.begin_array();
  for (const auto& child : node.children) write_span(w, *child);
  w.end_array();
  w.end_object();
}

}  // namespace

void SpanNode::note(std::string_view key, double value) {
  for (auto& [k, v] : notes) {
    if (k == key) {
      v = value;
      return;
    }
  }
  notes.emplace_back(std::string(key), value);
}

Registry::Registry() {
  root_.name = "root";
  stack_.push_back(&root_);
}

const Counter* Registry::find_counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Histogram* Registry::find_histogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

SpanNode* Registry::open_span(std::string name) {
  auto node = std::make_unique<SpanNode>();
  node->name = std::move(name);
  SpanNode* raw = node.get();
  stack_.back()->children.push_back(std::move(node));
  stack_.push_back(raw);
  return raw;
}

void Registry::close_span(SpanNode* node) {
  if (stack_.size() <= 1 || stack_.back() != node) {
    throw std::logic_error("Registry: spans must close innermost-first");
  }
  stack_.pop_back();
}

SpanNode* Registry::active_span() {
  return stack_.size() > 1 ? stack_.back() : nullptr;
}

void Registry::write_json(JsonWriter& w) const {
  w.begin_object();
  // Telemetry layout version. 1 (implicit, no key) = the original layout;
  // 2 = identical layout plus this marker. Consumers (bench_diff.py,
  // bench_gate.py) accept both.
  w.key("schema").value(static_cast<std::int64_t>(2));
  w.key("counters");
  w.begin_object();
  for (const auto& [name, c] : counters_) {
    w.key(name).value(c.value());
  }
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, g] : gauges_) {
    w.key(name).value(g.value());
  }
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, h] : histograms_) {
    w.key(name);
    w.begin_object();
    w.key("count").value(h.count());
    if (h.count() > 0) {
      w.key("min").value(h.min());
      w.key("max").value(h.max());
      w.key("mean").value(h.mean());
      w.key("p50").value(h.p50());
      w.key("p95").value(h.p95());
    }
    w.end_object();
  }
  w.end_object();
  w.key("spans");
  w.begin_array();
  for (const auto& child : root_.children) write_span(w, *child);
  w.end_array();
  w.end_object();
}

std::string Registry::to_json() const {
  JsonWriter w;
  write_json(w);
  return w.str();
}

Registry* current() { return g_current; }

ScopedRegistry::ScopedRegistry(Registry& registry) : previous_(g_current) {
  g_current = &registry;
}

ScopedRegistry::~ScopedRegistry() { g_current = previous_; }

}  // namespace chordal::obs
