package main

import (
	"strings"
	"testing"
)

func TestCheckArtifact(t *testing.T) {
	for _, tt := range []struct {
		artifact   string
		benchmarks []string
		wantErr    string
	}{
		{artifact: "all"},
		{artifact: "table3", benchmarks: []string{"fft"}},
		{artifact: "table6.4"},
		{artifact: "eq2"},
		{artifact: "figure1", benchmarks: []string{"fft", "lud"}},
		{artifact: "table7", wantErr: "one of: all, table1, table2, table3, table4, table6.4, figure1, eq2"},
		{artifact: "", wantErr: "unknown -artifact"},
		{artifact: "eq2", benchmarks: []string{"fft", "sha2"}, wantErr: "needs lud"},
		{artifact: "figure1", benchmarks: []string{"fft"}, wantErr: "needs lud"},
	} {
		err := checkArtifact(tt.artifact, tt.benchmarks)
		switch {
		case tt.wantErr == "" && err != nil:
			t.Errorf("checkArtifact(%q, %v) = %v, want nil", tt.artifact, tt.benchmarks, err)
		case tt.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tt.wantErr)):
			t.Errorf("checkArtifact(%q, %v) = %v, want error containing %q", tt.artifact, tt.benchmarks, err, tt.wantErr)
		}
	}
}
