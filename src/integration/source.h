// Data-source interfaces and record types for the federated layer.
//
// DrugTree integrated live web databases; here each source is a simulated
// remote service: it owns synthetic ground-truth data and charges the
// SimulatedNetwork for every request (per-request latency + payload bytes),
// so the federation costs behave like the real system's.
//
// Every source fetch has one form: it schedules its request and returns a
// Deferred (network.h) holding the payload and the virtual time it lands.
// Callers block on it with Await or overlap several through a FetchWindow.

#ifndef DRUGTREE_INTEGRATION_SOURCE_H_
#define DRUGTREE_INTEGRATION_SOURCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "integration/network.h"
#include "util/result.h"

namespace drugtree {
namespace integration {

/// A protein entry as served by the (simulated) protein database.
struct ProteinRecord {
  std::string accession;  // "P0001"
  std::string name;       // "protein P0001"
  std::string family;     // enzyme family label
  std::string organism;
  std::string sequence;   // residues

  /// Approximate wire size in bytes (drives transfer cost).
  uint64_t ApproxBytes() const;
};

/// A binding/assay measurement linking a protein to a ligand.
struct ActivityRecord {
  std::string accession;
  std::string ligand_id;
  double affinity_nm = 0.0;   // dissociation-ish constant, lower = stronger
  std::string assay_type;     // "IC50", "Ki", "Kd"
  std::string source_db;      // provenance label

  uint64_t ApproxBytes() const;
};

/// Common behaviour of a simulated remote source.
class RemoteSource {
 public:
  RemoteSource(std::string name, SimulatedNetwork* network)
      : name_(std::move(name)), network_(network) {}
  virtual ~RemoteSource() = default;

  const std::string& name() const { return name_; }
  uint64_t num_requests() const { return requests_; }

  /// The link this source charges (null in offline tests).
  SimulatedNetwork* network() { return network_; }

 protected:
  /// Schedules one request of `payload_bytes` on the network without
  /// advancing the clock; returns the absolute virtual completion time (0
  /// when there is no network).
  int64_t Charge(uint64_t payload_bytes) {
    ++requests_;
    if (network_ == nullptr) return 0;
    return network_->SubmitRequest(payload_bytes).ready_micros;
  }

 private:
  std::string name_;
  SimulatedNetwork* network_;
  uint64_t requests_ = 0;
};

}  // namespace integration
}  // namespace drugtree

#endif  // DRUGTREE_INTEGRATION_SOURCE_H_
