// Event groups: named subsets of PMU counters for focused scoring
// (paper Section IV-B — all / LLC-only / TLB-only).
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace perspector::core {

/// A named filter over counter names.
class EventGroup {
 public:
  /// All counters (identity filter).
  static EventGroup all();
  /// LLC-loads/stores and their misses (Fig. 3b).
  static EventGroup llc();
  /// dTLB loads/stores, their misses, and walk-pending cycles (Fig. 3c).
  static EventGroup tlb();
  /// Branch instructions and mispredictions.
  static EventGroup branch();
  /// Arbitrary user-defined group; `counters` must be non-empty.
  static EventGroup custom(std::string name, std::vector<std::string> counters);

  /// The preset named `name` (all/llc/tlb/branch), or nullopt.
  static std::optional<EventGroup> find(std::string_view name);

  /// The preset named `name`; throws `Error("unknown event group
  /// '<name>'")` when there is none, so each caller keeps its error type.
  template <typename Error = std::invalid_argument>
  static EventGroup by_name(const std::string& name) {
    if (auto group = find(name)) return *std::move(group);
    throw Error("unknown event group '" + name + "'");
  }

  const std::string& name() const noexcept { return name_; }

  /// True when this group keeps every counter.
  bool is_all() const noexcept { return counters_.empty(); }

  bool contains(const std::string& counter_name) const;

  /// Indices (into `available`) of the counters this group selects, in
  /// `available` order. Throws std::invalid_argument when the group selects
  /// nothing from `available`.
  std::vector<std::size_t> indices_in(
      const std::vector<std::string>& available) const;

 private:
  EventGroup(std::string name, std::vector<std::string> counters);

  std::string name_;
  std::vector<std::string> counters_;  // empty = all
};

}  // namespace perspector::core
