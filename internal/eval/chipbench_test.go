package eval

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestMergeChipBenchJSON checks the baseline merge: a cell replaces the row
// with the same (bench, variant) key, new cells are added, and rows come
// out sorted whatever order the benchmark families ran in.
func TestMergeChipBenchJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chip.json")
	if err := MergeChipBenchJSON(path, []ChipBenchRow{
		{Bench: "NUCAvsPerfectL2", Variant: "nuca", NsPerOp: 100, Cycles: 8546},
	}); err != nil {
		t.Fatal(err)
	}
	if err := MergeChipBenchJSON(path, []ChipBenchRow{
		{Bench: "NUCAvsPerfectL2", Variant: "nuca", NsPerOp: 50, Cycles: 8546},
		{Bench: "ChipDMAStream", Variant: "nofastpath", NsPerOp: 200, Cycles: 42},
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep ChipBenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	want := []ChipBenchRow{
		{Bench: "ChipDMAStream", Variant: "nofastpath", NsPerOp: 200, Cycles: 42},
		{Bench: "NUCAvsPerfectL2", Variant: "nuca", NsPerOp: 50, Cycles: 8546},
	}
	if !reflect.DeepEqual(rep.Rows, want) {
		t.Fatalf("merged rows = %+v, want %+v", rep.Rows, want)
	}
}
