#include "integration/mediator.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>

#include "integration/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace drugtree {
namespace integration {

using storage::Column;
using storage::Row;
using storage::Schema;
using storage::Table;
using storage::Value;
using storage::ValueType;

Schema ProteinTableSchema() {
  auto s = Schema::Create({
      {"accession", ValueType::kString, false},
      {"name", ValueType::kString, false},
      {"family", ValueType::kString, false},
      {"organism", ValueType::kString, false},
      {"seq_len", ValueType::kInt64, false},
      {"sequence", ValueType::kString, false},
  });
  DT_CHECK(s.ok());
  return *s;
}

Schema LigandTableSchema() {
  auto s = Schema::Create({
      {"ligand_id", ValueType::kString, false},
      {"name", ValueType::kString, false},
      {"smiles", ValueType::kString, false},
      {"mw", ValueType::kDouble, false},
      {"logp", ValueType::kDouble, false},
      {"hbd", ValueType::kInt64, false},
      {"hba", ValueType::kInt64, false},
      {"rings", ValueType::kInt64, false},
      {"drug_like", ValueType::kBool, false},
  });
  DT_CHECK(s.ok());
  return *s;
}

Schema ActivityTableSchema() {
  auto s = Schema::Create({
      {"accession", ValueType::kString, false},
      {"ligand_id", ValueType::kString, false},
      {"affinity_nm", ValueType::kDouble, false},
      {"assay_type", ValueType::kString, false},
      {"source_db", ValueType::kString, false},
  });
  DT_CHECK(s.ok());
  return *s;
}

namespace {

Row ProteinToRow(const ProteinRecord& p) {
  return {Value::String(p.accession),
          Value::String(p.name),
          Value::String(p.family),
          Value::String(p.organism),
          Value::Int64(static_cast<int64_t>(p.sequence.size())),
          Value::String(p.sequence)};
}

Row LigandToRow(const LigandEntry& e) {
  const auto& pr = e.properties;
  return {Value::String(e.record.ligand_id),
          Value::String(e.record.name),
          Value::String(e.record.smiles),
          Value::Double(pr.molecular_weight),
          Value::Double(pr.log_p),
          Value::Int64(pr.hbd),
          Value::Int64(pr.hba),
          Value::Int64(pr.ring_count),
          Value::Bool(pr.IsDrugLike())};
}

Row ActivityToRow(const ActivityRecord& a) {
  return {Value::String(a.accession), Value::String(a.ligand_id),
          Value::Double(a.affinity_nm), Value::String(a.assay_type),
          Value::String(a.source_db)};
}

/// Per-source fetch counters (records pulled from each wrapped database).
obs::Counter* FetchCounter(const char* source) {
  return obs::MetricRegistry::Default()->GetCounter(
      std::string("integration.fetch.") + source);
}

/// Summed record sizes of a fetch buffer (each record type exposes its own
/// wire-size estimate).
template <typename T>
int64_t SumApproxBytes(const std::vector<T>& recs) {
  int64_t bytes = 0;
  for (const auto& r : recs) bytes += static_cast<int64_t>(r.ApproxBytes());
  return bytes;
}

}  // namespace

std::string Mediator::EncodeProtein(const ProteinRecord& rec) {
  std::string out;
  storage::EncodeRow(ProteinToRow(rec), &out);
  return out;
}

util::Result<ProteinRecord> Mediator::DecodeProtein(const std::string& blob) {
  size_t off = 0;
  DRUGTREE_ASSIGN_OR_RETURN(Row row, storage::DecodeRow(blob, &off));
  if (row.size() != 6) {
    return util::Status::ParseError("bad protein blob arity");
  }
  ProteinRecord rec;
  rec.accession = row[0].AsString();
  rec.name = row[1].AsString();
  rec.family = row[2].AsString();
  rec.organism = row[3].AsString();
  rec.sequence = row[5].AsString();
  return rec;
}

std::string Mediator::EncodeActivities(
    const std::vector<ActivityRecord>& recs) {
  std::string out;
  Row header = {Value::Int64(static_cast<int64_t>(recs.size()))};
  storage::EncodeRow(header, &out);
  for (const auto& a : recs) storage::EncodeRow(ActivityToRow(a), &out);
  return out;
}

util::Result<std::vector<ActivityRecord>> Mediator::DecodeActivities(
    const std::string& blob) {
  size_t off = 0;
  DRUGTREE_ASSIGN_OR_RETURN(Row header, storage::DecodeRow(blob, &off));
  if (header.size() != 1 || header[0].type() != ValueType::kInt64) {
    return util::Status::ParseError("bad activities blob header");
  }
  int64_t count = header[0].AsInt64();
  std::vector<ActivityRecord> out;
  out.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    DRUGTREE_ASSIGN_OR_RETURN(Row row, storage::DecodeRow(blob, &off));
    if (row.size() != 5) {
      return util::Status::ParseError("bad activity row arity");
    }
    ActivityRecord a;
    a.accession = row[0].AsString();
    a.ligand_id = row[1].AsString();
    a.affinity_nm = row[2].AsDouble();
    a.assay_type = row[3].AsString();
    a.source_db = row[4].AsString();
    out.push_back(std::move(a));
  }
  return out;
}

Deferred<util::Result<ProteinRecord>> Mediator::GetProtein(
    const std::string& accession, const MediatorOptions& options) {
  const std::string key = SemanticCache::ProteinKey(accession);
  if (CacheEnabled(options)) {
    if (auto blob = cache_->Get(key)) return {DecodeProtein(*blob)};
  }
  Deferred<util::Result<ProteinRecord>> fetched =
      protein_source_->FetchByAccession(accession);
  if (fetched.value.ok() && CacheEnabled(options)) {
    cache_->Put(key, EncodeProtein(*fetched.value));
  }
  return fetched;
}

Deferred<util::Result<std::vector<ActivityRecord>>> Mediator::GetActivities(
    const std::string& accession, const MediatorOptions& options) {
  const std::string key = SemanticCache::ActivitiesByProteinKey(accession);
  if (CacheEnabled(options)) {
    if (auto blob = cache_->Get(key)) return {DecodeActivities(*blob)};
  }
  Deferred<std::vector<ActivityRecord>> fetched =
      activity_source_->FetchByAccession(accession);
  if (CacheEnabled(options)) cache_->Put(key, EncodeActivities(fetched.value));
  return {std::move(fetched.value), fetched.ready_micros};
}

Deferred<util::Result<std::vector<ProteinRecord>>> Mediator::GetFamily(
    const std::string& family, const MediatorOptions& options) {
  const std::string fam_key = SemanticCache::FamilyKey(family);
  if (CacheEnabled(options) && cache_->Contains(fam_key)) {
    // Every member was cached individually when the family was fetched;
    // decode the membership list and serve from the fine-grained entries.
    auto blob = cache_->Get(fam_key);
    if (blob) {
      std::vector<ProteinRecord> out;
      bool all_present = true;
      for (const auto& acc : util::Split(*blob, ',')) {
        if (acc.empty()) continue;
        auto member = cache_->Get(SemanticCache::ProteinKey(acc));
        if (!member) {
          all_present = false;  // member evicted: fall through to refetch
          break;
        }
        util::Result<ProteinRecord> rec = DecodeProtein(*member);
        if (!rec.ok()) return {rec.status()};
        out.push_back(std::move(*rec));
      }
      if (all_present) return {std::move(out)};
    }
  }
  Deferred<std::vector<ProteinRecord>> fetched =
      protein_source_->FetchFamily(family);
  if (CacheEnabled(options)) {
    std::vector<std::string> accs;
    for (const auto& rec : fetched.value) {
      cache_->Put(SemanticCache::ProteinKey(rec.accession),
                  EncodeProtein(rec));
      accs.push_back(rec.accession);
    }
    cache_->Put(fam_key, util::Join(accs, ","));
  }
  return {std::move(fetched.value), fetched.ready_micros};
}

template <typename Keys, typename Fetch, typename Take>
util::Status Mediator::FetchEach(const Keys& keys, Fetch fetch, Take take) {
  SimulatedNetwork* net = network();
  FetchWindow window(net, net != nullptr ? net->params().max_concurrency : 1);
  for (const auto& key : keys) {
    window.Acquire();
    auto fetched = fetch(key);
    window.Track(fetched.ready_micros);
    if (!fetched.value.ok()) return fetched.value.status();
    take(std::move(fetched.value).ValueUnsafe());
  }
  window.Drain();
  async_stats_.peak_in_flight =
      std::max(async_stats_.peak_in_flight, window.peak_in_flight());
  async_stats_.async_requests += window.submissions();
  return util::Status::OK();
}

util::Result<IntegratedDataset> Mediator::IntegrateAll(
    const MediatorOptions& options) {
  DT_SPAN("integrate.all");
  static obs::Counter* protein_fetches = FetchCounter("proteins");
  static obs::Counter* ligand_fetches = FetchCounter("ligands");
  static obs::Counter* activity_fetches = FetchCounter("activities");
  IntegratedDataset ds;
  ds.proteins = std::make_unique<Table>("proteins", ProteinTableSchema());
  ds.ligands = std::make_unique<Table>("ligands", LigandTableSchema());
  ds.activities = std::make_unique<Table>("activities", ActivityTableSchema());
  async_stats_ = MediatorAsyncStats{};
  SimulatedNetwork* net = network();

  // Proteins.
  std::vector<ProteinRecord> proteins;
  {
    DT_SPAN("integrate.fetch_proteins");
    if (options.batch_requests) {
      proteins = Await(net, protein_source_->FetchAll());
    } else {
      DRUGTREE_RETURN_IF_ERROR(FetchEach(
          Await(net, protein_source_->ListAccessions()),
          [&](const std::string& acc) { return GetProtein(acc, options); },
          [&](ProteinRecord rec) { proteins.push_back(std::move(rec)); }));
    }
  }
  protein_fetches->Add(static_cast<int64_t>(proteins.size()));
  // Account the transient fetch buffers while they are resident: each scope
  // covers the span between "records fetched" and "records loaded into the
  // table + buffer freed" (end of IntegrateAll).
  obs::ScopedMemoryCharge protein_buf_charge(memory_,
                                             SumApproxBytes(proteins));
  for (const auto& p : proteins) {
    DRUGTREE_RETURN_IF_ERROR(ds.proteins->Insert(ProteinToRow(p)).status());
    if (CacheEnabled(options)) {
      cache_->Put(SemanticCache::ProteinKey(p.accession), EncodeProtein(p));
    }
  }

  // Ligands.
  std::vector<LigandEntry> ligands;
  {
    DT_SPAN("integrate.fetch_ligands");
    if (options.batch_requests) {
      ligands = Await(net, ligand_source_->FetchAll());
    } else {
      DRUGTREE_RETURN_IF_ERROR(FetchEach(
          Await(net, ligand_source_->ListIds()),
          [&](const std::string& id) { return ligand_source_->FetchById(id); },
          [&](LigandEntry e) { ligands.push_back(std::move(e)); }));
    }
  }
  ligand_fetches->Add(static_cast<int64_t>(ligands.size()));
  obs::ScopedMemoryCharge ligand_buf_charge(memory_, SumApproxBytes(ligands));
  for (const auto& e : ligands) {
    DRUGTREE_RETURN_IF_ERROR(ds.ligands->Insert(LigandToRow(e)).status());
  }

  // Activities with conflict resolution. Measurements that agree on
  // (accession, ligand, assay_type) but come from different databases are
  // merged: geometric-mean affinity, provenance "merged".
  std::vector<ActivityRecord> activities;
  {
    DT_SPAN("integrate.fetch_activities");
    if (options.batch_requests) {
      activities = Await(net, activity_source_->FetchAll());
    } else {
      DRUGTREE_RETURN_IF_ERROR(FetchEach(
          proteins,
          [&](const ProteinRecord& p) {
            return GetActivities(p.accession, options);
          },
          [&](std::vector<ActivityRecord> a) {
            activities.insert(activities.end(),
                              std::make_move_iterator(a.begin()),
                              std::make_move_iterator(a.end()));
          }));
    }
  }
  activity_fetches->Add(static_cast<int64_t>(activities.size()));
  obs::ScopedMemoryCharge activity_buf_charge(memory_,
                                              SumApproxBytes(activities));
  DT_SPAN("integrate.resolve");
  std::map<std::tuple<std::string, std::string, std::string>,
           std::vector<const ActivityRecord*>>
      groups;
  for (const auto& a : activities) {
    groups[{a.accession, a.ligand_id, a.assay_type}].push_back(&a);
  }
  for (const auto& [key, recs] : groups) {
    ActivityRecord merged = *recs.front();
    if (recs.size() > 1) {
      double log_sum = 0.0;
      for (const auto* r : recs) log_sum += std::log(r->affinity_nm);
      merged.affinity_nm = std::exp(log_sum / static_cast<double>(recs.size()));
      merged.source_db = "merged";
    }
    DRUGTREE_RETURN_IF_ERROR(
        ds.activities->Insert(ActivityToRow(merged)).status());
  }

  DT_LOG(INFO) << "integrated " << proteins.size() << " proteins, "
               << ligands.size() << " ligands, " << activities.size()
               << " activity measurements (" << groups.size()
               << " after conflict resolution)";
  return ds;
}

}  // namespace integration
}  // namespace drugtree
