package serve

import (
	"net/http"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/store"
)

// handleArtifact serves GET /v1/artifacts/{kind}/{hash}: the CRC-framed
// versioned payload of a completed artifact, for cluster peer fetches.
// On a local miss a coordinator forwards the request to the rendezvous
// owner of the hash — the worker the dispatcher routes that protocol's
// cells to, hence the node most likely to hold the artifact.
func handleArtifact(eng *engine.Engine, opts Options, w http.ResponseWriter, r *http.Request) {
	kind, hash := r.PathValue("kind"), r.PathValue("hash")
	if !slices.Contains(engine.ArtifactKinds, kind) {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown artifact kind " + kind})
		return
	}
	payload, ok, err := eng.ArtifactBytes(r.Context(), kind, hash)
	if err != nil || !ok {
		if opts.Cluster != nil {
			if owner, live := opts.Cluster.Owner(hash); live {
				if p, ferr := cluster.FetchArtifact(r.Context(), artifactClient, owner.URL, kind, hash); ferr == nil && p != nil {
					payload, ok = p, true
				}
			}
		}
	}
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "artifact not found"})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(store.Encode(payload))
}

// artifactClient performs owner-forwarded artifact fetches; bounded so a
// dead owner cannot stall the endpoint.
var artifactClient = &http.Client{Timeout: 10 * time.Second}
