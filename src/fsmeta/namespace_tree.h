// One file set's namespace: an inode table plus directory entries,
// with slash-separated path resolution relative to the file set's root.
//
// This is the shared-disk image of a file set. It is deliberately a
// plain value-semantics data structure: "moving" a file set in the
// shared-disk architecture moves nothing here — only which server is
// allowed to serve it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "fsmeta/types.h"

namespace anufs::fsmeta {

/// Result of a path resolution, including the work it took (component
/// count drives the operation's service cost).
struct ResolveResult {
  OpStatus status = OpStatus::kOk;
  InodeId inode = kNoInode;          ///< valid when status == kOk
  InodeId parent = kNoInode;         ///< parent dir of the final entry
  std::string leaf;                  ///< final path component
  std::uint32_t components = 0;      ///< components traversed
};

class NamespaceTree {
 public:
  /// Starts with just the root directory (inode 0).
  NamespaceTree();

  // ---- queries ----------------------------------------------------------

  /// Resolve a path like "a/b/c" (no leading slash; "" = root).
  [[nodiscard]] ResolveResult resolve(std::string_view path) const;

  [[nodiscard]] const Attributes* attributes(InodeId inode) const;

  /// Directory entry count (for readdir cost); kNoInode-safe.
  [[nodiscard]] std::size_t entry_count(InodeId dir) const;

  /// Entries of a directory in name order.
  [[nodiscard]] std::vector<std::pair<std::string, InodeId>> list(
      InodeId dir) const;

  [[nodiscard]] std::size_t inode_count() const noexcept {
    return inodes_.size();
  }

  // ---- mutations (each returns status + touched-component cost) ---------

  struct MutateResult {
    OpStatus status = OpStatus::kOk;
    InodeId inode = kNoInode;
    std::uint32_t components = 0;
  };

  /// Create a file (or directory) at `path`; parent must exist.
  MutateResult create(std::string_view path, FileType type);

  /// Remove a file or EMPTY directory at `path`.
  MutateResult remove(std::string_view path);

  /// Rename within this namespace. Target must not exist.
  MutateResult rename(std::string_view from, std::string_view to);

  /// Bump size/mtime of a file (a metadata write).
  MutateResult set_attr(std::string_view path, std::uint64_t size,
                        std::uint64_t mtime);

  /// Structural self-check: every entry points at a live inode, link
  /// counts match, no orphans. Aborts on violation.
  void check_consistency() const;

  /// Canonical text form (deterministic; used for checkpointing and
  /// for recovery verification — two trees are identical iff their
  /// serializations are byte-equal).
  void serialize(std::ostream& os) const;

  /// Rebuild from serialize() output; aborts with a `<namespace>:<line>:`
  /// diagnostic on malformed input (common/line_reader.h).
  [[nodiscard]] static NamespaceTree deserialize(std::istream& is);

 private:
  struct Inode {
    Attributes attrs;
    // Directory payload (empty for files); ordered for determinism.
    std::map<std::string, InodeId> entries;
  };

  [[nodiscard]] const Inode* find(InodeId id) const;
  [[nodiscard]] Inode* find(InodeId id);

  std::unordered_map<InodeId, Inode> inodes_;
  std::uint64_t next_inode_ = 1;
};

/// Split "a/b/c" into components; rejects empty components.
[[nodiscard]] std::vector<std::string_view> split_path(
    std::string_view path);

}  // namespace anufs::fsmeta
