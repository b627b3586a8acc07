package main

import (
	"strings"
	"testing"
)

func TestSelectExperiments(t *testing.T) {
	names := []string{"fig8", "fig9", "planner"}
	want, err := selectExperiments(" fig9,planner,", names)
	if err != nil || len(want) != 2 || !want["fig9"] || !want["planner"] {
		t.Errorf("selectExperiments(fig9,planner) = %v, %v", want, err)
	}
	if want, err := selectExperiments("", names); err != nil || len(want) != 0 {
		t.Errorf("empty -only = %v, %v; want every experiment", want, err)
	}
	_, err = selectExperiments("fig8,engine", names)
	if err == nil || !strings.Contains(err.Error(), `"engine"`) || !strings.Contains(err.Error(), "fig8, fig9, planner") {
		t.Errorf("unknown name: err = %v, want it named with the known names listed", err)
	}
}
