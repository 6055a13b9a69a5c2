package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// TestBenchmarkDefinition checks that the repository's BENCHMARK.json
// names exactly the workloads this harness runs and the metrics it
// reports, in the same order and with the same units.
func TestBenchmarkDefinition(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metric                `json:"end_to_end"`
		PerLayer  []metric                `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range Workloads {
		names = append(names, w.Name)
	}
	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(specNames) {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", names, specNames)
	}
	if got, want := fmt.Sprint(spec.EndToEnd), fmt.Sprint(e2eMetrics); got != want {
		t.Errorf("end_to_end %s, harness reports %s", got, want)
	}
	if got, want := fmt.Sprint(spec.PerLayer), fmt.Sprint(layerMetrics); got != want {
		t.Errorf("per_layer %s, harness reports %s", got, want)
	}
}
