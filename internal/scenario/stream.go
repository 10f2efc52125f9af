package scenario

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/attack"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/drift"
	"repro/internal/ml"
	"repro/internal/sensor"
)

// Workload names for Scenario.Workload.
const (
	// WorkloadSynthetic is a small separable two-feature table — the
	// cheapest stand-in when a scenario only exercises traffic and
	// faults.
	WorkloadSynthetic = "synthetic"
	// WorkloadFall is the UniMiB-style fall-detection data of use case 1.
	WorkloadFall = "fall"
	// WorkloadNetTraffic is the flow-feature data of use case 2.
	WorkloadNetTraffic = "nettraffic"
)

// Sensor names the stream registers on a sensor.Manager.
const (
	// SensorDrift watches the stream's feature distributions with the
	// KS/PSI detector (value = drift.Score, 1 means no drift).
	SensorDrift = "scenario-drift"
	// SensorAgreement watches prediction/label agreement on the stream
	// (value = agreement fraction; poisoned labels or evasive features
	// both collapse it).
	SensorAgreement = "scenario-agreement"
)

// Alert-threshold calibration. Clean-baseline drift and agreement levels
// differ wildly across workloads (the 151-feature fall table rejects a
// fifth of its features on any 64-row resample; the synthetic table
// almost none), so fixed thresholds either false-alarm or miss. Instead
// NewStream emits calBatches clean probe batches, records the worst
// clean score of each sensor, and sets the alert line that margin below
// it — an alert is then evidence of something the clean baseline never
// does.
const (
	calBatches  = 48
	driftMargin = 0.20
	agreeMargin = 0.10
	alertFloor  = 0.05
)

// Stream is the model's data plane inside a scenario: a clean reference
// distribution plus a generator that emits batches, optionally perturbed
// by the running phase's adversarial action. The drift detector and the
// serving model watch the same batches the executor emits, so detection
// delay is measured against the exact bytes the adversary produced.
type Stream struct {
	reference *dataset.Table
	model     ml.GradientClassifier
	det       *drift.Detector
	batchSize int

	// Calibrated alert lines (see the calibration constants).
	driftAlert float64
	agreeAlert float64

	mu   sync.Mutex
	rng  *rand.Rand
	last *dataset.Table
}

// NewStream fits the drift reference and wires the model. The reference
// table must be standardized (or otherwise scale-homogeneous): the
// covariate-shift action offsets features in standard-deviation units.
func NewStream(reference *dataset.Table, model ml.GradientClassifier, seed int64) (*Stream, error) {
	if model == nil || model.NumClasses() == 0 {
		return nil, fmt.Errorf("scenario: stream needs a trained model")
	}
	// KS alpha and a loose PSI threshold tuned for 64-row batches: at
	// that sample size a 0.2 PSI fires on resampling noise alone.
	det, err := drift.Fit(reference, 0.005, 0.45, 8)
	if err != nil {
		return nil, fmt.Errorf("scenario: fit drift reference: %w", err)
	}
	s := &Stream{
		reference: reference,
		model:     model,
		det:       det,
		batchSize: 64,
		rng:       rand.New(rand.NewSource(seed)),
	}
	if err := s.calibrate(); err != nil {
		return nil, err
	}
	return s, nil
}

// calibrate emits clean probe batches and anchors the alert thresholds
// the configured margins below the worst clean score observed. The
// probes consume the stream's seeded RNG deterministically and the last
// batch is cleared afterwards, so a run starts from a pristine stream.
func (s *Stream) calibrate() error {
	minDrift, minAgree := 1.0, 1.0
	for i := 0; i < calBatches; i++ {
		if err := s.Emit(nil, 0); err != nil {
			return fmt.Errorf("scenario: calibrate stream: %w", err)
		}
		batch := s.lastBatch()
		rep, err := s.det.Detect(batch)
		if err != nil {
			return fmt.Errorf("scenario: calibrate drift: %w", err)
		}
		if v := drift.Score(rep); v < minDrift {
			minDrift = v
		}
		if v := agreement(s.model, batch); v < minAgree {
			minAgree = v
		}
	}
	s.driftAlert = math.Max(alertFloor, minDrift-driftMargin)
	s.agreeAlert = math.Max(alertFloor, minAgree-agreeMargin)
	s.mu.Lock()
	s.last = nil
	s.mu.Unlock()
	return nil
}

// agreement is the fraction of rows the model predicts to their label.
func agreement(model ml.GradientClassifier, batch *dataset.Table) float64 {
	agree := 0
	for i, class := range ml.PredictBatch(model, batch) {
		if class == batch.Y[i] {
			agree++
		}
	}
	return float64(agree) / float64(batch.Len())
}

// Emit generates the next batch: clean rows resampled from the
// reference, then perturbed by adv (nil = clean). progress in [0,1] is
// the position inside the adversarial phase, consumed by ramping
// actions. The batch becomes the one the stream sensors score.
func (s *Stream) Emit(adv *Adversarial, progress float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	batch := dataset.New(s.reference.Name, s.reference.FeatureNames, s.reference.ClassNames)
	n := s.reference.Len()
	for i := 0; i < s.batchSize; i++ {
		src := s.rng.Intn(n)
		row := append([]float64(nil), s.reference.X[src]...)
		if err := batch.Append(row, s.reference.Y[src]); err != nil {
			return fmt.Errorf("scenario: emit batch: %w", err)
		}
	}
	if adv != nil {
		perturbed, err := s.perturbLocked(batch, adv, progress)
		if err != nil {
			return err
		}
		batch = perturbed
	}
	s.last = batch
	return nil
}

// perturbLocked applies one adversarial action to a batch.
func (s *Stream) perturbLocked(batch *dataset.Table, adv *Adversarial, progress float64) (*dataset.Table, error) {
	switch adv.Kind {
	case AdvPoisonWave:
		seed := s.rng.Int63()
		if adv.Target >= 0 {
			return attack.TargetedFlip(batch, adv.Rate, adv.Target, seed)
		}
		return attack.LabelFlip(batch, adv.Rate, seed)
	case AdvFGSMBurst:
		res, err := attack.FGSM(s.model, batch, adv.Eps)
		if err != nil {
			return nil, fmt.Errorf("scenario: fgsm burst: %w", err)
		}
		return res.Adversarial, nil
	case AdvCovariateShift:
		if progress < 0 {
			progress = 0
		}
		if progress > 1 {
			progress = 1
		}
		offset := adv.Magnitude * progress
		out := batch.Clone()
		for _, row := range out.X {
			for j := range row {
				row[j] += offset
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("scenario: unknown adversarial kind %q", adv.Kind)
	}
}

// lastBatch returns the most recently emitted batch, or nil.
func (s *Stream) lastBatch() *dataset.Table {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// DriftCollector scores the last batch with the KS/PSI detector. Before
// the first emission it reports a healthy 1.0.
func (s *Stream) DriftCollector() sensor.Collector {
	return sensor.CollectorFunc(func(ctx context.Context) (float64, map[string]float64, error) {
		batch := s.lastBatch()
		if batch == nil {
			return 1, nil, nil
		}
		rep, err := s.det.Detect(batch)
		if err != nil {
			return 0, nil, err
		}
		return drift.Score(rep), map[string]float64{
			"driftedFraction": rep.DriftedFraction,
		}, nil
	})
}

// AgreementCollector scores prediction/label agreement on the last
// batch: label-flip poisoning lowers it through the labels, FGSM through
// the features.
func (s *Stream) AgreementCollector() sensor.Collector {
	return sensor.CollectorFunc(func(ctx context.Context) (float64, map[string]float64, error) {
		batch := s.lastBatch()
		if batch == nil {
			return 1, nil, nil
		}
		return agreement(s.model, batch), nil, nil
	})
}

// RegisterSensors registers the stream's drift and agreement sensors on
// the manager, sampled every sensorEvery, with the calibrated alert
// thresholds.
func (s *Stream) RegisterSensors(m *sensor.Manager) error {
	if err := m.Register(&sensor.Sensor{
		Name:      SensorDrift,
		Property:  sensor.PropPerformance,
		Interval:  sensorEvery,
		Collector: s.DriftCollector(),
		Threshold: sensor.Threshold{Min: sensor.Float64Ptr(s.driftAlert)},
	}); err != nil {
		return err
	}
	return m.Register(&sensor.Sensor{
		Name:      SensorAgreement,
		Property:  sensor.PropResilience,
		Interval:  sensorEvery,
		Collector: s.AgreementCollector(),
		Threshold: sensor.Threshold{Min: sensor.Float64Ptr(s.agreeAlert)},
	})
}

// BuildWorkload constructs the stream for a scenario's named workload:
// generate the dataset, standardize features (so covariate shifts and
// FGSM budgets are in comparable units), train the white-box model, and
// fit the drift reference on a held-out split.
func BuildWorkload(name string, seed int64) (*Stream, error) {
	var table *dataset.Table
	switch name {
	case WorkloadSynthetic:
		table = syntheticTable(seed)
	case WorkloadFall:
		cfg := datagen.DefaultUniMiBConfig()
		cfg.Samples = 600
		cfg.Seed = seed
		t, err := datagen.UniMiBBinary(cfg)
		if err != nil {
			return nil, fmt.Errorf("scenario: build fall workload: %w", err)
		}
		table = t
	case WorkloadNetTraffic:
		cfg := datagen.DefaultNetTrafficConfig()
		cfg.Seed = seed
		t, _, err := datagen.NetTraffic(cfg)
		if err != nil {
			return nil, fmt.Errorf("scenario: build nettraffic workload: %w", err)
		}
		table = t
	default:
		return nil, fmt.Errorf("scenario: unknown workload %q", name)
	}

	scaler, err := dataset.FitScaler(table)
	if err != nil {
		return nil, fmt.Errorf("scenario: fit scaler: %w", err)
	}
	if err := scaler.Transform(table); err != nil {
		return nil, fmt.Errorf("scenario: scale workload: %w", err)
	}

	cfg := ml.DefaultLogRegConfig()
	cfg.Seed = seed
	model := ml.NewLogReg(cfg)
	if err := model.Fit(table); err != nil {
		return nil, fmt.Errorf("scenario: train workload model: %w", err)
	}
	return NewStream(table, model, seed)
}

// syntheticTable builds the small separable table used by
// traffic/fault-only scenarios. Six features, not two: drift.Score is
// 1 − driftedFraction, so with only two features a single false-positive
// KS rejection on a clean 64-row batch already drops the score to 0.5 —
// under the 0.70 alert line. At six features one flaky feature reads
// 0.83 and stays healthy.
func syntheticTable(seed int64) *dataset.Table {
	rng := rand.New(rand.NewSource(seed))
	names := []string{"f0", "f1", "f2", "f3", "f4", "f5"}
	t := dataset.New("synthetic", names, []string{"a", "b"})
	for i := 0; i < 360; i++ {
		y := i % 2
		x := []float64{
			float64(y)*4 - 2 + rng.NormFloat64()*0.5,
			math.Sin(float64(i)/7) + rng.NormFloat64()*0.3,
			rng.NormFloat64(),
			float64(y) + rng.NormFloat64()*0.8,
			math.Cos(float64(i)/11) + rng.NormFloat64()*0.4,
			rng.Float64()*2 - 1,
		}
		// Append only rejects shape mismatches, which the fixed literal
		// above cannot produce.
		_ = t.Append(x, y)
	}
	return t
}
