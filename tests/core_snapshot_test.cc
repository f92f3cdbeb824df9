// Snapshot persistence and annotation-guided LOD tests.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>

#include "core/drugtree.h"
#include "core/workload.h"
#include "mobile/lod.h"
#include "util/clock.h"
#include "util/rng.h"

namespace drugtree {
namespace core {
namespace {

using query::PlannerOptions;

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = testing::TempDir() + "/drugtree_snapshot_test.db";
    std::remove(path_.c_str());
    BuildOptions options;
    options.seed = 3;
    options.num_families = 3;
    options.taxa_per_family = 8;
    options.sequence_length = 70;
    options.num_ligands = 60;
    auto built = DrugTree::Build(options, &clock_);
    ASSERT_TRUE(built.ok()) << built.status();
    dt_ = std::move(*built);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  util::SimulatedClock clock_;
  std::unique_ptr<DrugTree> dt_;
  std::string path_;
};

TEST_F(SnapshotTest, SaveLoadRoundTripPreservesData) {
  ASSERT_TRUE(dt_->SaveSnapshot(path_).ok());
  auto loaded = DrugTree::LoadSnapshot(path_, &clock_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded)->tree().NumLeaves(), dt_->tree().NumLeaves());
  EXPECT_EQ((*loaded)->ligands()->NumRows(), dt_->ligands()->NumRows());
  EXPECT_EQ((*loaded)->activities()->NumRows(), dt_->activities()->NumRows());
  EXPECT_EQ((*loaded)->overlay()->proteins()->NumRows(),
            dt_->overlay()->proteins()->NumRows());
  // Loaded instances have no remote sources.
  EXPECT_EQ((*loaded)->protein_source(), nullptr);
}

TEST_F(SnapshotTest, LoadedInstanceAnswersQueriesIdentically) {
  ASSERT_TRUE(dt_->SaveSnapshot(path_).ok());
  auto loaded = DrugTree::LoadSnapshot(path_, &clock_);
  ASSERT_TRUE(loaded.ok());
  WorkloadParams wp;
  wp.num_queries = 12;
  util::Rng rng(7);
  auto workload = GenerateWorkload(dt_->tree(), dt_->tree_index(), wp, &rng);
  for (const auto& q : workload) {
    // Workload node ids come from the original tree; map via name so the
    // comparison is fair even if node numbering changed on reload.
    auto a = dt_->Query(q.sql, PlannerOptions::Optimized());
    ASSERT_TRUE(a.ok()) << q.sql;
    // Rebuild the query against the loaded tree's numbering.
    std::string name = dt_->tree().node(q.focus).name;
    phylo::NodeId mapped = name.empty()
                               ? q.focus
                               : (*loaded)->tree().FindByName(name);
    std::string sql2 = MakeQuerySql(q.kind, mapped, (*loaded)->tree(), wp);
    auto b = (*loaded)->Query(sql2, PlannerOptions::Optimized());
    ASSERT_TRUE(b.ok()) << sql2 << ": " << b.status();
    // Node ids renumber on reload (Newick DFS order), so only compare
    // queries whose outputs are numbering-independent and whose focus
    // carried over by name.
    bool numbering_free = q.kind == QueryKind::kSubtreeProteins ||
                          q.kind == QueryKind::kScreeningJoin ||
                          q.kind == QueryKind::kFamilyAggregate;
    if (numbering_free &&
        (!name.empty() || q.kind == QueryKind::kFamilyAggregate)) {
      ASSERT_EQ(a->result.rows.size(), b->result.rows.size()) << q.sql;
      for (size_t i = 0; i < a->result.rows.size(); ++i) {
        EXPECT_EQ(a->result.rows[i], b->result.rows[i]) << q.sql;
      }
    }
  }
}

TEST_F(SnapshotTest, LoadedInstanceSupportsUpdatesAndSessions) {
  ASSERT_TRUE(dt_->SaveSnapshot(path_).ok());
  auto loaded = DrugTree::LoadSnapshot(path_, &clock_);
  ASSERT_TRUE(loaded.ok());
  auto leaf = (*loaded)->tree().Leaves()[0];
  ASSERT_TRUE(
      (*loaded)->AddActivity((*loaded)->tree().node(leaf).name, "L000001", 2.0)
          .ok());
  mobile::TraceParams tp;
  tp.num_actions = 6;
  auto trace = (*loaded)->MakeTrace(tp, 1);
  auto session = (*loaded)->MakeSession(mobile::DeviceProfile::TabletWifi(),
                                        {}, PlannerOptions::Optimized());
  auto report = session.Run(trace);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->latency_ms.count(), 6);
}

TEST_F(SnapshotTest, MissingAndCorruptSnapshotsRejected) {
  auto missing = DrugTree::LoadSnapshot(path_ + ".nope", &clock_);
  EXPECT_FALSE(missing.ok());
  // Corrupt: write garbage into the superblock.
  ASSERT_TRUE(dt_->SaveSnapshot(path_).ok());
  FILE* f = std::fopen(path_.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  uint32_t junk = 0xBADC0DE;
  std::fwrite(&junk, sizeof(junk), 1, f);
  std::fclose(f);
  auto corrupt = DrugTree::LoadSnapshot(path_, &clock_);
  EXPECT_TRUE(corrupt.status().IsParseError());
}

TEST_F(SnapshotTest, SaveOverwritesExisting) {
  ASSERT_TRUE(dt_->SaveSnapshot(path_).ok());
  ASSERT_TRUE(dt_->SaveSnapshot(path_).ok());  // second save must not corrupt
  auto loaded = DrugTree::LoadSnapshot(path_, &clock_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded)->tree().NumLeaves(), dt_->tree().NumLeaves());
}

TEST_F(SnapshotTest, LoadedTablesHoldTheLiveRowsInOrder) {
  // A deleted row is not saved; every live row comes back, equal and in
  // its original order.
  const int64_t before = dt_->activities()->NumRows();
  ASSERT_TRUE(dt_->activities()->Delete(7).ok());
  ASSERT_TRUE(dt_->SaveSnapshot(path_).ok());
  auto loaded = DrugTree::LoadSnapshot(path_, &clock_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded)->activities()->NumRows(), before - 1);
  std::pair<storage::Table*, storage::Table*> tables[] = {
      {dt_->ligands(), (*loaded)->ligands()},
      {dt_->activities(), (*loaded)->activities()}};
  for (auto [saved, back] : tables) {
    std::vector<storage::RowId> live = saved->LiveRows();
    ASSERT_EQ(back->NumRows(), static_cast<int64_t>(live.size()))
        << saved->name();
    for (size_t i = 0; i < live.size(); ++i) {
      EXPECT_EQ(back->row(static_cast<storage::RowId>(i)), saved->row(live[i]))
          << saved->name() << " row " << i;
    }
  }
}

TEST_F(SnapshotTest, FailedSaveKeepsThePreviousSnapshot) {
  ASSERT_TRUE(dt_->SaveSnapshot(path_).ok());
  const std::string before = ReadBytes(path_);
  auto leaf = dt_->tree().Leaves()[0];
  ASSERT_TRUE(
      dt_->AddActivity(dt_->tree().node(leaf).name, "L000001", 2.0).ok());
  // A directory where the save writes its temporary file fails the save.
  const std::string tmp = path_ + ".tmp";
  std::filesystem::remove_all(tmp);
  ASSERT_TRUE(std::filesystem::create_directory(tmp));
  util::Status saved = dt_->SaveSnapshot(path_);
  std::filesystem::remove(tmp);
  EXPECT_TRUE(saved.IsIoError()) << saved;
  EXPECT_TRUE(ReadBytes(path_) == before) << "the previous snapshot changed";
}

/// Where each section of a saved snapshot starts, where its payload starts
/// (after a u64 length and a u32 CRC-32) and where it ends.
struct SectionSpan {
  size_t start = 0;
  size_t payload = 0;
  size_t end = 0;
};

std::vector<SectionSpan> SnapshotSections(const std::string& file) {
  std::vector<SectionSpan> spans;
  size_t offset = 8;  // u32 magic, u32 version
  for (int s = 0; s < 4 && offset + 12 <= file.size(); ++s) {
    uint64_t length = 0;
    for (size_t i = 0; i < 8; ++i) {
      length |= uint64_t{static_cast<uint8_t>(file[offset + i])} << (8 * i);
    }
    spans.push_back({offset, offset + 12, offset + 12 + length});
    offset = spans.back().end;
  }
  return spans;
}

TEST_F(SnapshotTest, HostileBytesFailWithAStatus) {
  ASSERT_TRUE(dt_->SaveSnapshot(path_).ok());
  const std::string good = ReadBytes(path_);
  const std::vector<SectionSpan> spans = SnapshotSections(good);
  ASSERT_EQ(spans.size(), 4u);
  ASSERT_EQ(spans.back().end, good.size());

  const std::string bad_path = path_ + ".bad";
  auto load = [&](const std::string& bytes) {
    std::ofstream out(bad_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    return DrugTree::LoadSnapshot(bad_path, &clock_).status();
  };
  ASSERT_TRUE(load(good).ok());

  // Truncations: everywhere inside the header, at each section boundary
  // +-1, and a seeded sample of 200 more.
  util::Rng rng(27);
  std::set<size_t> cuts;
  for (size_t n = 0; n <= 8; ++n) cuts.insert(n);
  for (const SectionSpan& span : spans) {
    for (size_t at : {span.start, span.payload, span.end}) {
      cuts.insert({at - 1, at, at + 1});
    }
  }
  for (size_t planned = cuts.size() + 200; cuts.size() < planned;) {
    cuts.insert(rng.Uniform(good.size()));
  }
  for (size_t n : cuts) {
    if (n >= good.size()) continue;
    util::Status status = load(good.substr(0, n));
    EXPECT_TRUE(status.IsParseError()) << "cut at " << n << ": " << status;
  }

  // Single-byte flips: every byte of the header and of each section's
  // length and CRC, and 40 seeded payload bytes per section.
  std::vector<size_t> flips;
  for (size_t at = 0; at < 8; ++at) flips.push_back(at);
  for (const SectionSpan& span : spans) {
    for (size_t at = span.start; at < span.payload; ++at) flips.push_back(at);
    for (int k = 0; k < 40; ++k) {
      flips.push_back(span.payload + rng.Uniform(span.end - span.payload));
    }
  }
  for (size_t at : flips) {
    std::string bytes = good;
    bytes[at] = static_cast<char>(bytes[at] ^ (1 + rng.Uniform(255)));
    util::Status status = load(bytes);
    EXPECT_TRUE(status.IsParseError()) << "flip at " << at << ": " << status;
  }

  // A version-1 header, and one byte past the last section.
  std::string v1 = good;
  v1.replace(4, 4, std::string("\x01\x00\x00\x00", 4));
  util::Status old_version = load(v1);
  EXPECT_TRUE(old_version.IsParseError());
  EXPECT_NE(old_version.message().find("version 1"), std::string::npos)
      << old_version;
  EXPECT_TRUE(load(good + '\0').IsParseError());
  std::remove(bad_path.c_str());

  // A missing file is NotFound, and loading it creates nothing.
  const std::string missing = path_ + ".missing";
  std::remove(missing.c_str());
  EXPECT_TRUE(DrugTree::LoadSnapshot(missing, &clock_).status().IsNotFound());
  EXPECT_FALSE(std::filesystem::exists(missing));
}

TEST(AnnotationLodTest, HotCladesEarnDetail) {
  // Balanced tree; one clade gets a hot annotation.
  phylo::Tree tree;
  auto root = *tree.AddRoot();
  std::vector<phylo::NodeId> frontier = {root};
  for (int level = 0; level < 6; ++level) {
    std::vector<phylo::NodeId> next;
    for (auto p : frontier) {
      next.push_back(*tree.AddChild(p, "", 1.0));
      next.push_back(*tree.AddChild(p, "", 1.0));
    }
    frontier = std::move(next);
  }
  auto index = *phylo::TreeIndex::Build(tree);
  auto layout = *phylo::TreeLayout::Compute(tree);
  // Annotate the left child's whole subtree as hot.
  std::vector<double> ann(tree.NumNodes(), 0.0);
  phylo::NodeId hot = tree.node(root).children[0];
  for (auto n : index.SubtreeNodes(hot)) ann[static_cast<size_t>(n)] = 5.0;

  mobile::Viewport vp = mobile::Viewport::FullExtent(layout);
  mobile::LodParams params;
  params.min_subtree_pixels = 120;
  params.screen_height_px = 480;
  auto flat = mobile::ComputeLodCut(tree, index, layout, vp, ann, params);
  ASSERT_TRUE(flat.ok());
  params.annotation_boost = 8.0;
  params.annotation_hot_threshold = 1.0;
  auto boosted = mobile::ComputeLodCut(tree, index, layout, vp, ann, params);
  ASSERT_TRUE(boosted.ok());
  // Boost ships more nodes, and the extra nodes are inside the hot clade.
  EXPECT_GT(boosted->size(), flat->size());
  size_t hot_flat = 0, hot_boosted = 0, cold_flat = 0, cold_boosted = 0;
  for (const auto& n : *flat) {
    (index.IsAncestor(hot, n.id) ? hot_flat : cold_flat) += 1;
  }
  for (const auto& n : *boosted) {
    (index.IsAncestor(hot, n.id) ? hot_boosted : cold_boosted) += 1;
  }
  EXPECT_GT(hot_boosted, hot_flat);
  EXPECT_EQ(cold_boosted, cold_flat);
}

TEST(AnnotationLodTest, BoostBelowOneRejected) {
  phylo::Tree tree;
  tree.AddRoot().ValueOrDie();
  auto index = *phylo::TreeIndex::Build(tree);
  auto layout = *phylo::TreeLayout::Compute(tree);
  mobile::LodParams params;
  params.annotation_boost = 0.5;
  EXPECT_TRUE(mobile::ComputeLodCut(tree, index, layout,
                                    mobile::Viewport::FullExtent(layout), {},
                                    params)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace core
}  // namespace drugtree
