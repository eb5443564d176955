#!/usr/bin/env bash
# Static guard against linear-scan regressions on the indexed recall path.
#
# The sub-linear recall contract (DESIGN.md "Sub-linear recall index"):
# when a request is served through a RecallIndex, the online phase runs
# entirely off the IndexStructure — it probes nprobe partitions and ranks
# only their posting lists plus the propagation tail, and never walks the
# zoo, the performance matrix or the clustering. This script greps for the
# patterns that would quietly reintroduce a full-zoo O(|M|) sweep into
# that section, or a second ranking path beside it — it is a tripwire, not a proof, and it runs exit-code-audit
# style as the `no_linear_recall` ctest.
#
#   usage: check_no_linear_recall.sh <repo-root>

set -u

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <repo-root>" >&2
  exit 2
fi

ROOT=$1
SRC=$ROOT/src
RECALL=$SRC/core/coarse_recall.cc
FAILURES=0

fail() {
  echo "FAIL: $1" >&2
  shift
  for line in "$@"; do echo "  $line" >&2; done
  FAILURES=$((FAILURES + 1))
}

# 1. The marker pair delimiting the indexed ranking section must exist —
#    the later checks are scoped to it, so losing a marker silently
#    disables them.
begin_line=$(grep -n "\[indexed-recall-begin\]" "$RECALL" | head -1 | cut -d: -f1)
end_line=$(grep -n "\[indexed-recall-end\]" "$RECALL" | head -1 | cut -d: -f1)
if [[ -z "$begin_line" || -z "$end_line" ]] || (( begin_line >= end_line )); then
  fail "coarse_recall.cc: [indexed-recall-begin]/[indexed-recall-end] markers missing or out of order"
else
  echo "ok: coarse_recall.cc carries the indexed-recall markers"

  # 2. Inside the markers the code may only read the IndexStructure:
  #    touching the zoo, the performance matrix or the clustering there is
  #    exactly the full-sweep regression this script exists to catch.
  section=$(sed -n "${begin_line},${end_line}p" "$RECALL")
  hits=$(echo "$section" | grep -n "zoo_->\|matrix_->\|clustering_->" || true)
  if [[ -n "$hits" ]]; then
    fail "coarse_recall.cc indexed section reads zoo_/matrix_/clustering_ — the online path must stay on the index structure (offsets relative to line $begin_line)" \
         "$hits"
  else
    echo "ok: indexed ranking section stays on the IndexStructure"
  fi
fi

# 3. The serving layer must actually route requests through the index:
#    SelectionService::Run wires the snapshot's index into the recall
#    options. Dropping that line would silently serve every request
#    through the legacy sweep while the bench still reports indexed wins.
if grep -q "options\.recall\.index = artifacts\.index\.get()" "$SRC/serve/service.cc"; then
  echo "ok: service.cc routes requests through the published index"
else
  fail "service.cc no longer wires artifacts.index into RecallOptions — indexed serving is disconnected"
fi

# 4. The IVF probe stays nprobe-bounded: ProbePartitions must consume its
#    probe budget. A backend that ignores nprobe degenerates to probing
#    everything — sub-linear in name only.
if grep -A 8 "IvfIndex::ProbePartitions" "$SRC/index/ivf_index.cc" | grep -q "nprobe"; then
  echo "ok: ivf_index.cc ProbePartitions consumes the nprobe budget"
else
  fail "ivf_index.cc ProbePartitions no longer references nprobe — probe budget is dead"
fi

# 5. The embedding backend's scoring section is delimited the same way:
#    inside the markers only dot products against the trained embeddings
#    are allowed — touching the zoo, the performance matrix, the
#    clustering, or looping over num_models() there would reintroduce a
#    full-zoo sweep behind the embedding IVF's back.
EMB=$SRC/recall/embedding_backend.cc
emb_begin=$(grep -n "\[embedding-recall-begin\]" "$EMB" | head -1 | cut -d: -f1)
emb_end=$(grep -n "\[embedding-recall-end\]" "$EMB" | head -1 | cut -d: -f1)
if [[ -z "$emb_begin" || -z "$emb_end" ]] || (( emb_begin >= emb_end )); then
  fail "embedding_backend.cc: [embedding-recall-begin]/[embedding-recall-end] markers missing or out of order"
else
  echo "ok: embedding_backend.cc carries the embedding-recall markers"
  emb_section=$(sed -n "${emb_begin},${emb_end}p" "$EMB")
  emb_hits=$(echo "$emb_section" | grep -v '^[[:space:]]*//' \
    | grep -n "zoo\|matrix\|clustering\|num_models()" || true)
  if [[ -n "$emb_hits" ]]; then
    fail "embedding_backend.cc scoring section must stay on the probed candidates (offsets relative to line $emb_begin)" \
         "$emb_hits"
  else
    echo "ok: embedding scoring section stays on the probed candidates"
  fi
fi

# 6. The geometric probe stays nprobe-bounded, like check 4 for the
#    accuracy-vector probe.
if grep -A 12 "IvfIndex::ProbePartitionsNearQuery" "$SRC/index/ivf_index.cc" | grep -q "nprobe"; then
  echo "ok: ivf_index.cc ProbePartitionsNearQuery consumes the nprobe budget"
else
  fail "ivf_index.cc ProbePartitionsNearQuery no longer references nprobe — probe budget is dead"
fi

# 7. The recall subsystem must stay proxy-agnostic: backends rank with the
#    trained embeddings and the shared CoarseRecall entry point, never by
#    including a transfer-proxy header directly. A LEEP #include in
#    src/recall/ couples the backend layer to one proxy implementation.
transfer_includes=$(grep -rn '#include "transfer/' "$SRC/recall/" || true)
if [[ -n "$transfer_includes" ]]; then
  fail "src/recall/ includes transfer-proxy headers — backends must stay proxy-agnostic" \
       "$transfer_includes"
else
  echo "ok: src/recall/ is free of transfer-proxy includes"
fi

# 8. One ranking path: CoarseRecall ranks every query through a
#    RecallIndex (the request's, or the exact index over its clustering).
#    Walking the clustering's clusters, or a flag that scores every model
#    directly, in coarse_recall.cc would add a second ranking path beside
#    it. The flag's name is spelled in two halves so that a tree-wide grep
#    for it finds no live use.
removed_flag="use_cluster_""representatives"
sweep_hits=$(grep -n "ClusterOf(\|NonSingletonClusters(\|$removed_flag" "$RECALL" || true)
if [[ -n "$sweep_hits" ]]; then
  fail "coarse_recall.cc walks the clustering directly — rank through a RecallIndex instead" \
       "$sweep_hits"
else
  echo "ok: coarse_recall.cc has a single, index-based ranking path"
fi

if [[ $FAILURES -ne 0 ]]; then
  echo "$FAILURES linear-recall regression check(s) failed" >&2
  exit 1
fi
echo "no linear-scan recall regressions detected"
