// Strongly-typed identifiers shared across modules.
//
// ServerId and FileSetId are distinct wrapper types so that a file-set
// index can never be passed where a server index is expected (the two are
// both small integers and the bug would otherwise be silent).
#pragma once

#include <compare>
#include <cstdint>
#include <functional>

namespace anufs {

/// Index of a metadata server within a cluster. Dense, assigned at
/// commissioning time, never reused within one simulation.
struct ServerId {
  std::uint32_t value = 0;
  friend constexpr auto operator<=>(ServerId, ServerId) = default;
};

/// Index of a file set (the indivisible unit of workload placement).
struct FileSetId {
  std::uint32_t value = 0;
  friend constexpr auto operator<=>(FileSetId, FileSetId) = default;
};

constexpr ServerId kInvalidServer{~std::uint32_t{0}};
constexpr FileSetId kInvalidFileSet{~std::uint32_t{0}};

}  // namespace anufs

template <>
struct std::hash<anufs::ServerId> {
  std::size_t operator()(anufs::ServerId id) const noexcept {
    return std::hash<std::uint32_t>{}(id.value);
  }
};
