#ifndef MARITIME_MARITIME_CE_DEFINITIONS_H_
#define MARITIME_MARITIME_CE_DEFINITIONS_H_

#include "maritime/knowledge.h"
#include "maritime/me_stream.h"
#include "rtec/engine.h"

namespace maritime::surveillance {

/// Tunables of the CE definitions.
struct CeOptions {
  /// Figure 11(b) mode: spatial relations come precomputed as `close` facts
  /// in the input stream (via a SpatialFactTable) instead of being computed
  /// on demand by Haversine reasoning during recognition.
  bool use_spatial_facts = false;

  /// Registers the extension CE adrift(Vessel) (see MaritimeSchema::adrift).
  /// The Figure 11 benches disable this to reproduce the paper's exact CE
  /// set. Turning it off does not make partitioned recognition exact: each
  /// critical point goes to the one band its longitude falls in, so a point
  /// within the close threshold of a neighbouring band's area never reaches
  /// that band, and area-keyed CEs differ too (illegalFishing on 16 of 73
  /// slides at 1 vs 2 partitions, BuildWorld(25), with adrift on or off).
  /// Known gap: ROADMAP.md, "Exact partitioned recognition".
  bool enable_adrift = true;
};

/// Registers on `engine`, in dependency order:
///  - the durative input MEs stopped(Vessel) and lowSpeed(Vessel), driven by
///    the tracker's episode marker events;
///  - the CE fluents suspicious(Area) (rule-set (3)) and
///    illegalFishing(Area) (rule-set (4), with the termination conditions
///    the paper describes but omits for space);
///  - the CE events illegalShipping(Area) (rule (5)) and
///    dangerousShipping(Area) (rule (6)).
///
/// `kb` must outlive the engine. `facts` is required (and must outlive the
/// engine) when options.use_spatial_facts is true; ignored otherwise.
void RegisterMaritimeCes(rtec::Engine& engine, const MaritimeSchema& schema,
                         const KnowledgeBase* kb,
                         const SpatialFactTable* facts, CeOptions options);

}  // namespace maritime::surveillance

#endif  // MARITIME_MARITIME_CE_DEFINITIONS_H_
