package inject_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fastflip/internal/core"
	"fastflip/internal/inject"
	"fastflip/internal/isa"
	"fastflip/internal/metrics"
	"fastflip/internal/prog"
	"fastflip/internal/sites"
	"fastflip/internal/testprog"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// v2ExperimentPayload hand-encodes a WAL format v2 experiment payload,
// type byte first, field by field as every v2 writer has laid it out.
func v2ExperimentPayload(key sites.ClassKey, out metrics.Outcome, cost inject.Stats, flags byte) []byte {
	le := binary.LittleEndian
	b := []byte{inject.StreamExperiment}
	b = le.AppendUint32(b, uint32(len(key.Static.Func)))
	b = append(b, key.Static.Func...)
	b = le.AppendUint32(b, uint32(key.Static.Local))
	b = append(b, byte(key.Role), key.Bit)
	b = append(b, byte(out.Kind), byte(out.Reason))
	b = le.AppendUint32(b, uint32(len(out.Magnitudes)))
	for _, m := range out.Magnitudes {
		b = le.AppendUint64(b, math.Float64bits(m))
	}
	b = append(b, 0) // no co-run final outcome
	b = le.AppendUint64(b, cost.SimInstrs)
	b = le.AppendUint64(b, cost.CleanInstrs)
	b = le.AppendUint64(b, cost.FaultyInstrs)
	b = append(b, flags)
	return le.AppendUint64(b, cost.ElidedInstrs)
}

// frame wraps a payload in the WAL / shard-stream record framing.
func frame(payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli))
	return append(b, payload...)
}

// markBatched sets the retired batched bit on every executed (non-elided)
// experiment record of a WAL segment, the way writers that still had the
// lockstep batch tier flagged batched experiments, and re-checksums each
// changed record. It returns the number of records it marked.
func markBatched(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	marked := 0
	for off := inject.WALHeaderSize; off+8 <= len(data); {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		payload := data[off+8 : off+8+n]
		// The flags byte sits just before the trailing u64 ElidedInstrs.
		if payload[0] == inject.StreamExperiment && payload[n-9]&inject.WALFlagElided == 0 {
			payload[n-9] |= inject.WALFlagBatched
			binary.LittleEndian.PutUint32(data[off+4:], crc32.Checksum(payload, castagnoli))
			marked++
		}
		off += 8 + n
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return marked
}

// neutralizeResume zeroes the summary fields that legitimately differ
// between a resumed and an uninterrupted run: wall time, the engine-work
// split, and the resume bookkeeping itself.
func neutralizeResume(s *core.Summary) {
	s.FFWall = 0
	s.FFCleanInstrs, s.FFFaultyInstrs = 0, 0
	s.ResumedExperiments = 0
	s.WALNotes = nil
}

// TestWALReadsRetiredBatchedFlag: v2 experiment records written while the
// lockstep batch tier existed carry flag bit 1. Current readers must
// accept such records and ignore the bit — in the WAL payload parser, in
// the shard-stream reader, and through a full core resume.
func TestWALReadsRetiredBatchedFlag(t *testing.T) {
	key := sites.ClassKey{Static: prog.StaticID{Func: "scale", Local: 3}, Role: isa.OperandDst, Bit: 17}
	out := metrics.Outcome{Kind: metrics.SDC, Magnitudes: []float64{0.25, math.Inf(1)}}
	cost := inject.Stats{SimInstrs: 120, CleanInstrs: 30, FaultyInstrs: 90}
	plain := v2ExperimentPayload(key, out, cost, 0)
	batched := v2ExperimentPayload(key, out, cost, inject.WALFlagBatched)

	want, err := inject.ParseExperimentPayload(plain[1:])
	if err != nil {
		t.Fatal(err)
	}
	got, err := inject.ParseExperimentPayload(batched[1:])
	if err != nil {
		t.Fatalf("record with the retired batched bit rejected: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("batched bit changed the decoded record:\nwith:    %+v\nwithout: %+v", got, want)
	}
	wantCost := inject.Stats{Experiments: 1, SimInstrs: 120, CleanInstrs: 30, FaultyInstrs: 90}
	if want.Cost != wantCost || want.Key != key || !reflect.DeepEqual(want.Out, out) {
		t.Errorf("decoded record %+v, want key %v outcome %+v cost %+v", want, key, out, wantCost)
	}

	stream := inject.NewStreamReader(bytes.NewReader(append(frame(batched), frame(plain)...)))
	var frames []inject.WALRecord
	for {
		rec, err := stream.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				t.Fatalf("stream: %v", err)
			}
			break
		}
		frames = append(frames, rec.Experiment)
	}
	if len(frames) != 2 || !reflect.DeepEqual(frames[0], want) || !reflect.DeepEqual(frames[1], want) {
		t.Errorf("stream decoded %+v, want two copies of %+v", frames, want)
	}

	// Resume: interrupt a WAL-backed analysis, mark its logged executed
	// experiments batched, and resume. The neutralized summary must be
	// byte-identical to an uninterrupted run.
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	p := testprog.Pipeline()
	rRef, err := core.NewAnalyzer(cfg).Analyze(p)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cfg1 := cfg
	cfg1.WALDir = dir
	a1 := core.NewAnalyzer(cfg1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a1.Progress = func(pr core.Progress) {
		if pr.Injected >= 1 {
			cancel()
		}
	}
	if _, err := a1.AnalyzeContext(ctx, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted analysis returned %v, want context.Canceled", err)
	}
	marked := 0
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && filepath.Ext(path) == ".wal" {
			marked += markBatched(t, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if marked == 0 {
		t.Fatal("interrupted campaign logged no executed experiments to mark")
	}

	cfg2 := cfg1
	cfg2.Resume = true
	r2, err := core.NewAnalyzer(cfg2).Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if r2.ResumedExperiments() < marked {
		t.Fatalf("resume recovered %d experiments, want at least the %d marked ones", r2.ResumedExperiments(), marked)
	}
	sumRef, sum2 := rRef.Summarize(cfg.Epsilon, nil), r2.Summarize(cfg.Epsilon, nil)
	neutralizeResume(sumRef)
	neutralizeResume(sum2)
	jRef, err := json.Marshal(sumRef)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(sum2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jRef, j2) {
		t.Errorf("resumed summary differs from uninterrupted run:\nref:     %s\nresumed: %s", jRef, j2)
	}
}
