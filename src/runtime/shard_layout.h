#ifndef DCV_RUNTIME_SHARD_LAYOUT_H_
#define DCV_RUNTIME_SHARD_LAYOUT_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace dcv {

/// Contiguous partition of N sites across k shard coordinators. The
/// default (empty `starts`) is the balanced split: the first (N mod k)
/// shards own ceil(N/k) sites, the rest floor(N/k). A non-empty `starts`
/// (k+1 ascending boundaries, starts[0]=0, starts[k]=N) describes an
/// explicit partition — the form a mid-run reshard pushes, versioned by
/// `version` so every party can tell stale layouts from current ones.
///
/// Contiguity is what keeps the sharded virtual-time runs bit-identical to
/// the lockstep simulator — iterating shards 0..k-1 and each shard's sites
/// in ascending order visits the global site ids in ascending order, which
/// is exactly the order the single-threaded schemes replay their channel
/// sends in. Every layout, balanced or explicit, preserves that invariant.
struct ShardLayout {
  int num_sites = 0;
  int num_shards = 1;
  uint32_t version = 0;      ///< Monotone; bumped by each reshard push.
  std::vector<int> starts;   ///< Empty = balanced; else k+1 boundaries.

  /// First site owned by `shard`.
  int ShardStart(int shard) const {
    if (!starts.empty()) {
      return starts[static_cast<size_t>(shard)];
    }
    const int base = num_sites / num_shards;
    const int rem = num_sites % num_shards;
    return shard * base + (shard < rem ? shard : rem);
  }

  /// Number of sites owned by `shard`.
  int ShardSize(int shard) const {
    if (!starts.empty()) {
      return starts[static_cast<size_t>(shard) + 1] -
             starts[static_cast<size_t>(shard)];
    }
    const int base = num_sites / num_shards;
    const int rem = num_sites % num_shards;
    return base + (shard < rem ? 1 : 0);
  }

  /// The shard owning `site`; O(1) arithmetic for the balanced split,
  /// O(log k) boundary search for an explicit one.
  int ShardOf(int site) const {
    if (!starts.empty()) {
      auto it = std::upper_bound(starts.begin(), starts.end(), site);
      return static_cast<int>(it - starts.begin()) - 1;
    }
    const int base = num_sites / num_shards;
    const int rem = num_sites % num_shards;
    const int boundary = rem * (base + 1);
    if (site < boundary) {
      return site / (base + 1);
    }
    return rem + (site - boundary) / base;
  }

  /// Sites a full epoch can put in flight toward the most-loaded shard.
  int MaxShardSites() const {
    if (!starts.empty()) {
      int widest = 0;
      for (int s = 0; s < num_shards; ++s) {
        widest = std::max(widest, ShardSize(s));
      }
      return widest;
    }
    return (num_sites + num_shards - 1) / num_shards;
  }
};

/// Validates 1 <= num_shards <= num_sites (a shard with zero sites would be
/// a coordinator thread with nothing to coordinate).
inline Result<ShardLayout> MakeShardLayout(int num_sites, int num_shards) {
  if (num_sites < 1) {
    return InvalidArgumentError("shard layout needs at least one site");
  }
  if (num_shards < 1 || num_shards > num_sites) {
    return InvalidArgumentError("num_shards must be in [1, num_sites], got " +
                                std::to_string(num_shards) + " for " +
                                std::to_string(num_sites) + " sites");
  }
  ShardLayout layout;
  layout.num_sites = num_sites;
  layout.num_shards = num_shards;
  return layout;
}

/// Validates and builds an explicit layout from k+1 ascending boundaries
/// (starts[0] == 0, starts[k] == num_sites, every shard non-empty).
inline Result<ShardLayout> MakeExplicitLayout(int num_sites,
                                              std::vector<int> starts,
                                              uint32_t version) {
  const int k = static_cast<int>(starts.size()) - 1;
  if (num_sites < 1 || k < 1 || k > num_sites) {
    return InvalidArgumentError("explicit layout needs 1 <= shards <= sites");
  }
  if (starts.front() != 0 || starts.back() != num_sites) {
    return InvalidArgumentError(
        "explicit layout boundaries must span [0, num_sites]");
  }
  for (int s = 0; s < k; ++s) {
    if (starts[static_cast<size_t>(s)] >= starts[static_cast<size_t>(s) + 1]) {
      return InvalidArgumentError(
          "explicit layout boundaries must be strictly ascending "
          "(no empty shard)");
    }
  }
  ShardLayout layout;
  layout.num_sites = num_sites;
  layout.num_shards = k;
  layout.version = version;
  layout.starts = std::move(starts);
  return layout;
}

/// A deterministic non-trivial rebalance of `from`: shifts every interior
/// boundary one site to the right where legal (each shard stays non-empty).
/// Used by the chaos harness's `reshard` scenario to exercise the layout
/// push protocol with a layout that genuinely differs from the current one.
inline ShardLayout RotateLayout(const ShardLayout& from) {
  std::vector<int> starts(static_cast<size_t>(from.num_shards) + 1);
  for (int s = 0; s < from.num_shards; ++s) {
    starts[static_cast<size_t>(s)] = from.ShardStart(s);
  }
  starts[static_cast<size_t>(from.num_shards)] = from.num_sites;
  for (int s = 1; s < from.num_shards; ++s) {
    if (starts[static_cast<size_t>(s)] + 1 <
        starts[static_cast<size_t>(s) + 1]) {
      ++starts[static_cast<size_t>(s)];
    }
  }
  // The shift preserves every invariant MakeExplicitLayout checks (it is a
  // no-op when all shards have size 1), so this cannot fail.
  return *MakeExplicitLayout(from.num_sites, std::move(starts),
                             from.version + 1);
}

}  // namespace dcv

#endif  // DCV_RUNTIME_SHARD_LAYOUT_H_
