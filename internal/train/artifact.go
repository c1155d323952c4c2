package train

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"tunio/internal/replay"
)

// artifactVersion versions the on-disk stage envelope; readArtifact
// rejects other versions rather than guessing at their layout.
const artifactVersion = 1

// Artifact is the envelope every pipeline stage writes to disk: a
// versioned, content-hashed JSON document. InputHash fingerprints
// everything the stage's output depends on — the relevant Config fields
// plus the payload hashes of upstream stages — so a resumed run can prove
// an artifact is still the product of the requested training without
// re-running the stage. PayloadHash covers the payload bytes themselves,
// catching truncation or corruption independent of provenance.
type Artifact struct {
	Version     int             `json:"version"`
	Stage       string          `json:"stage"`
	InputHash   string          `json:"input_hash"`
	PayloadHash string          `json:"payload_sha256"`
	Payload     json.RawMessage `json:"payload"`
}

// hashBytes returns the hex SHA-256 of b.
func hashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// hashInputs hashes the JSON encodings of the values, NUL-separated, into
// one hex digest — the stage input fingerprint.
func hashInputs(vs ...any) (string, error) {
	h := sha256.New()
	for _, v := range vs {
		b, err := json.Marshal(v)
		if err != nil {
			return "", err
		}
		h.Write(b)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// artifactPath returns the file a stage's artifact lives at.
func artifactPath(dir, stage string) string {
	return filepath.Join(dir, stage+".json")
}

// writeArtifact writes the stage's payload (already JSON) under the
// envelope, atomically (replay.WriteFileAtomic), and returns the payload
// hash downstream stages chain on.
func writeArtifact(dir, stage, inputHash string, payload []byte) (string, error) {
	art := Artifact{
		Version:     artifactVersion,
		Stage:       stage,
		InputHash:   inputHash,
		PayloadHash: hashBytes(payload),
		Payload:     payload,
	}
	b, err := json.MarshalIndent(art, "", " ")
	if err != nil {
		return "", err
	}
	b = append(b, '\n')
	if err := replay.WriteFileAtomic(artifactPath(dir, stage), b); err != nil {
		return "", err
	}
	return art.PayloadHash, nil
}

// readArtifact loads a stage artifact and validates its envelope: the
// version and stage name must match and the payload must hash to
// PayloadHash. InputHash is returned for the caller to judge — only the
// pipeline knows what this run's inputs hash to. The payload is
// re-compacted before hashing: the envelope is written indented for
// humans, which reflows the embedded payload, and PayloadHash covers the
// canonical compact bytes.
func readArtifact(dir, stage string) (*Artifact, error) {
	b, err := os.ReadFile(artifactPath(dir, stage))
	if err != nil {
		return nil, err
	}
	var art Artifact
	if err := json.Unmarshal(b, &art); err != nil {
		return nil, fmt.Errorf("train: artifact %s: %w", stage, err)
	}
	if art.Version != artifactVersion {
		return nil, fmt.Errorf("train: artifact %s: version %d, want %d", stage, art.Version, artifactVersion)
	}
	if art.Stage != stage {
		return nil, fmt.Errorf("train: artifact %s: names stage %q", stage, art.Stage)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, art.Payload); err != nil {
		return nil, fmt.Errorf("train: artifact %s: %w", stage, err)
	}
	art.Payload = compact.Bytes()
	if got := hashBytes(art.Payload); got != art.PayloadHash {
		return nil, fmt.Errorf("train: artifact %s: payload hash mismatch (stored %.12s…, computed %.12s…)", stage, art.PayloadHash, got)
	}
	return &art, nil
}
