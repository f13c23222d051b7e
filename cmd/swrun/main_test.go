package main

import "testing"

func TestParseJob(t *testing.T) {
	tests := []struct {
		give       string
		wantModel  string
		wantBatch  int
		wantPrio   int
		wantGPU    int
		wantTrain  bool
		wantClosed bool
		wantSat    bool
	}{
		{give: "train:VGG16:32:1", wantModel: "VGG16", wantBatch: 32, wantPrio: 1, wantTrain: true},
		{give: "serve:ResNet50:1:2", wantModel: "ResNet50", wantBatch: 1, wantPrio: 2, wantClosed: true},
		{give: "infer:MobileNetV2:128", wantModel: "MobileNetV2", wantBatch: 128, wantSat: true},
		{give: "train:ResNet50:16:1@1", wantModel: "ResNet50", wantBatch: 16, wantPrio: 1, wantGPU: 1, wantTrain: true},
	}
	for _, tt := range tests {
		t.Run(tt.give, func(t *testing.T) {
			spec, err := parseJob(tt.give)
			if err != nil {
				t.Fatal(err)
			}
			if spec.Model != tt.wantModel || spec.Batch != tt.wantBatch ||
				spec.Priority != tt.wantPrio || spec.Placement.Device != tt.wantGPU {
				t.Fatalf("spec = %+v", spec)
			}
			if spec.Train != tt.wantTrain || spec.ClosedLoop != tt.wantClosed || spec.Saturated != tt.wantSat {
				t.Fatalf("mode flags = %+v", spec)
			}
		})
	}
}

func TestParseJobTrainingGetsFallbacks(t *testing.T) {
	spec, err := parseJob("train:ResNet50:32:1@1")
	if err != nil {
		t.Fatal(err)
	}
	if !spec.Placement.AllowCPU {
		t.Error("training job missing CPU fallback")
	}
	for _, gpu := range spec.Placement.Fallbacks {
		if gpu == 1 {
			t.Error("fallbacks include the preferred GPU")
		}
	}
}

func TestParseJobErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"train:VGG16",
		"train:VGG16:x",
		"train:VGG16:32:y",
		"fly:VGG16:32",
		"train:VGG16:32:1@x",
	} {
		if _, err := parseJob(bad); err == nil {
			t.Errorf("parseJob(%q) accepted", bad)
		}
	}
}

func TestMachineSpecNames(t *testing.T) {
	for _, name := range []string{"v100", "2gpu", "tx2", "V100"} {
		if _, err := machineSpec(name); err != nil {
			t.Errorf("machineSpec(%q): %v", name, err)
		}
	}
	if _, err := machineSpec("abacus"); err == nil {
		t.Error("machineSpec(abacus) accepted")
	}
}
