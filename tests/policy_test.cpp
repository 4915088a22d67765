// Tests for the static placement policies and the shared assignment base.
#include "policies/policy.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "policies/round_robin.h"
#include "policies/simple_random.h"
#include "workload/synthetic.h"

namespace anufs::policy {
namespace {

std::vector<workload::FileSetSpec> make_sets(std::uint32_t n) {
  std::vector<workload::FileSetSpec> sets;
  for (std::uint32_t i = 0; i < n; ++i) {
    sets.push_back(workload::FileSetSpec::make(
        i, "fs" + std::to_string(i), 1.0));
  }
  return sets;
}

std::vector<ServerId> make_servers(std::uint32_t n) {
  std::vector<ServerId> servers;
  for (std::uint32_t i = 0; i < n; ++i) servers.push_back(ServerId{i});
  return servers;
}

TEST(RoundRobin, DealsEqually) {
  RoundRobinPolicy policy;
  policy.initialize(make_sets(20), make_servers(5));
  std::map<ServerId, int> counts;
  for (std::uint32_t i = 0; i < 20; ++i) {
    ++counts[policy.owner(FileSetId{i})];
  }
  for (const auto& [id, c] : counts) EXPECT_EQ(c, 4);
}

TEST(RoundRobin, NearEqualWhenNotDivisible) {
  RoundRobinPolicy policy;
  policy.initialize(make_sets(21), make_servers(5));
  std::map<ServerId, int> counts;
  for (std::uint32_t i = 0; i < 21; ++i) {
    ++counts[policy.owner(FileSetId{i})];
  }
  for (const auto& [id, c] : counts) {
    EXPECT_GE(c, 4);
    EXPECT_LE(c, 5);
  }
}

TEST(RoundRobin, StaticUnderRebalance) {
  RoundRobinPolicy policy;
  policy.initialize(make_sets(10), make_servers(2));
  const std::vector<core::ServerReport> reports{
      {ServerId{0}, 5.0, 100}, {ServerId{1}, 0.001, 100}};
  EXPECT_TRUE(policy.rebalance(120.0, reports).empty());
}

TEST(RoundRobin, FailureRehomesOnlyVictimSets) {
  RoundRobinPolicy policy;
  policy.initialize(make_sets(20), make_servers(5));
  std::map<FileSetId, ServerId> before;
  for (std::uint32_t i = 0; i < 20; ++i) {
    before[FileSetId{i}] = policy.owner(FileSetId{i});
  }
  const std::vector<Move> moves = policy.on_server_failed(ServerId{1});
  EXPECT_EQ(moves.size(), 4u);
  for (const Move& m : moves) {
    EXPECT_EQ(m.from, ServerId{1});
    EXPECT_NE(m.to, ServerId{1});
  }
  for (std::uint32_t i = 0; i < 20; ++i) {
    const FileSetId fs{i};
    if (before[fs] != ServerId{1}) {
      EXPECT_EQ(policy.owner(fs), before[fs]);
    } else {
      EXPECT_NE(policy.owner(fs), ServerId{1});
    }
  }
}

TEST(RoundRobin, AdditionKeepsAssignment) {
  RoundRobinPolicy policy;
  policy.initialize(make_sets(10), make_servers(3));
  std::map<FileSetId, ServerId> before;
  for (std::uint32_t i = 0; i < 10; ++i) {
    before[FileSetId{i}] = policy.owner(FileSetId{i});
  }
  EXPECT_TRUE(policy.on_server_added(ServerId{3}).empty());
  for (const auto& [fs, owner] : before) {
    EXPECT_EQ(policy.owner(fs), owner);
  }
  EXPECT_EQ(policy.servers().size(), 4u);
}

TEST(SimpleRandom, DeterministicInSeed) {
  SimpleRandomPolicy a{9};
  SimpleRandomPolicy b{9};
  a.initialize(make_sets(50), make_servers(5));
  b.initialize(make_sets(50), make_servers(5));
  for (std::uint32_t i = 0; i < 50; ++i) {
    EXPECT_EQ(a.owner(FileSetId{i}), b.owner(FileSetId{i}));
  }
}

TEST(SimpleRandom, DifferentSeedsDiffer) {
  SimpleRandomPolicy a{9};
  SimpleRandomPolicy b{10};
  a.initialize(make_sets(50), make_servers(5));
  b.initialize(make_sets(50), make_servers(5));
  int same = 0;
  for (std::uint32_t i = 0; i < 50; ++i) {
    if (a.owner(FileSetId{i}) == b.owner(FileSetId{i})) ++same;
  }
  EXPECT_LT(same, 50);
}

TEST(SimpleRandom, UsesAllServersEventually) {
  SimpleRandomPolicy policy{3};
  policy.initialize(make_sets(200), make_servers(5));
  std::set<ServerId> used;
  for (std::uint32_t i = 0; i < 200; ++i) {
    used.insert(policy.owner(FileSetId{i}));
  }
  EXPECT_EQ(used.size(), 5u);
}

TEST(SimpleRandom, RoughlyUniformAtScale) {
  SimpleRandomPolicy policy{4};
  policy.initialize(make_sets(5000), make_servers(5));
  std::map<ServerId, int> counts;
  for (std::uint32_t i = 0; i < 5000; ++i) {
    ++counts[policy.owner(FileSetId{i})];
  }
  for (const auto& [id, c] : counts) {
    EXPECT_NEAR(static_cast<double>(c) / 5000.0, 0.2, 0.03);
  }
}

TEST(SimpleRandom, StaticUnderRebalance) {
  SimpleRandomPolicy policy{5};
  policy.initialize(make_sets(10), make_servers(2));
  const std::vector<core::ServerReport> reports{
      {ServerId{0}, 5.0, 100}, {ServerId{1}, 0.001, 100}};
  EXPECT_TRUE(policy.rebalance(120.0, reports).empty());
}

TEST(SimpleRandom, FailureRehomesOnlyVictimSets) {
  SimpleRandomPolicy policy{6};
  policy.initialize(make_sets(100), make_servers(4));
  std::map<FileSetId, ServerId> before;
  int victim_count = 0;
  for (std::uint32_t i = 0; i < 100; ++i) {
    before[FileSetId{i}] = policy.owner(FileSetId{i});
    if (before[FileSetId{i}] == ServerId{2}) ++victim_count;
  }
  const std::vector<Move> moves = policy.on_server_failed(ServerId{2});
  EXPECT_EQ(static_cast<int>(moves.size()), victim_count);
  for (std::uint32_t i = 0; i < 100; ++i) {
    const FileSetId fs{i};
    EXPECT_NE(policy.owner(fs), ServerId{2});
    if (before[fs] != ServerId{2}) {
      EXPECT_EQ(policy.owner(fs), before[fs]);
    }
  }
}

TEST(PolicyBaseDeathTest, OwnerOfUnknownSetAborts) {
  RoundRobinPolicy policy;
  policy.initialize(make_sets(3), make_servers(2));
  EXPECT_DEATH((void)policy.owner(FileSetId{99}), "precondition");
}

/// A bare AssignmentPolicyBase that exposes publish(), to drive the
/// base class's guards directly. It places every set on its lowest
/// server.
class PublishProbe final : public AssignmentPolicyBase {
 public:
  [[nodiscard]] std::string name() const override { return "publish-probe"; }
  void initialize(const std::vector<workload::FileSetSpec>& file_sets,
                  const std::vector<ServerId>& servers) override {
    begin_initialize(file_sets, servers);
    std::vector<ServerId> next(file_sets_.size(), servers_.front());
    publish(next);
  }
  std::vector<Move> rebalance(
      sim::SimTime /*now*/,
      const std::vector<core::ServerReport>& /*reports*/) override {
    return {};
  }
  std::vector<Move> on_server_failed(ServerId /*id*/) override { return {}; }
  std::vector<Move> on_server_added(ServerId /*id*/) override { return {}; }

  std::vector<Move> publish_table(std::vector<ServerId> next) {
    return publish(next);
  }
};

TEST(PolicyBase, PublishDiffsInFileSetOrder) {
  PublishProbe probe;
  probe.initialize(make_sets(4), make_servers(3));
  const std::vector<Move> moves = probe.publish_table(
      {ServerId{2}, ServerId{0}, ServerId{1}, ServerId{0}});
  ASSERT_EQ(moves.size(), 2u);
  EXPECT_EQ(moves[0].file_set, FileSetId{0});
  EXPECT_EQ(moves[0].from, ServerId{0});
  EXPECT_EQ(moves[0].to, ServerId{2});
  EXPECT_EQ(moves[1].file_set, FileSetId{2});
  EXPECT_EQ(moves[1].to, ServerId{1});
  EXPECT_EQ(probe.owner(FileSetId{0}), ServerId{2});
  EXPECT_EQ(probe.owner(FileSetId{3}), ServerId{0});
}

TEST(PolicyBaseDeathTest, PublishingAnotherKeySetAborts) {
  PublishProbe probe;
  probe.initialize(make_sets(4), make_servers(2));
  EXPECT_DEATH((void)probe.publish_table(std::vector<ServerId>(3, ServerId{1})),
               "key set");
}

TEST(PolicyBaseDeathTest, PublishingAnUnassignedSetAborts) {
  PublishProbe probe;
  probe.initialize(make_sets(4), make_servers(2));
  EXPECT_DEATH(
      (void)probe.publish_table(
          {ServerId{1}, kInvalidServer, ServerId{0}, ServerId{1}}),
      "assign every file set");
}

TEST(PolicyBaseDeathTest, SparseFileSetIdsAbortAtInitialize) {
  std::vector<workload::FileSetSpec> sets = make_sets(3);
  sets.erase(sets.begin() + 1);  // ids {0, 2}
  PublishProbe probe;
  EXPECT_DEATH(probe.initialize(sets, make_servers(2)), "dense");
  RoundRobinPolicy policy;
  EXPECT_DEATH(policy.initialize(sets, make_servers(2)), "dense");
}

TEST(PolicyBase, ServersSorted) {
  RoundRobinPolicy policy;
  policy.initialize(make_sets(3),
                    {ServerId{4}, ServerId{1}, ServerId{3}});
  const std::vector<ServerId> s = policy.servers();
  EXPECT_EQ(s, (std::vector<ServerId>{ServerId{1}, ServerId{3}, ServerId{4}}));
}

}  // namespace
}  // namespace anufs::policy
