package main

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"testing"

	"repro/internal/dataset"
	"repro/internal/service"
)

// TestHoldoutAccuracySlicesLargeHoldouts: a holdout larger than the ML
// service admits in one predict (768 rows) is still scored, in slices,
// and the last partial slice is counted.
func TestHoldoutAccuracySlicesLargeHoldouts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tb := dataset.New("sep", []string{"f0", "f1"}, []string{"a", "b"})
	for i := 0; i < 3*predictSlice+7; i++ {
		y := i % 2
		if err := tb.Append([]float64{float64(y)*4 - 2 + rng.NormFloat64()*0.4, rng.NormFloat64()}, y); err != nil {
			t.Fatal(err)
		}
	}
	svc := service.NewMLService()
	defer svc.Close()
	srv := httptest.NewServer(svc)
	defer srv.Close()
	mlc := &service.Client{BaseURL: srv.URL}
	ctx := context.Background()
	trained, err := mlc.Train(ctx, service.TrainRequest{Algorithm: "lr", Train: service.FromTable(tb), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := mlc.Predict(ctx, service.PredictRequest{ModelID: trained.ModelID, Instances: tb.X}); err == nil {
		t.Fatalf("a %d-row predict was admitted whole: the holdout is too small to show slicing", tb.Len())
	}
	acc, err := holdoutAccuracy(ctx, mlc, trained.ModelID, tb)
	if err != nil {
		t.Fatal(err)
	}
	// Scored over every row, it is the accuracy the service measured when
	// it trained on the same table.
	if acc != trained.Metrics.Accuracy {
		t.Fatalf("sliced accuracy %v over %d rows, want the training accuracy %v", acc, tb.Len(), trained.Metrics.Accuracy)
	}
}
