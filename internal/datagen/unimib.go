// Package datagen synthesizes the two datasets the paper evaluates on.
// Both originals are unavailable (UniMiB SHAR cannot be redistributed; the
// network traces are proprietary), so this package generates statistical
// stand-ins that preserve the properties the experiments depend on — see
// DESIGN.md §3 for the substitution rationale.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
)

// UniMiB window geometry: the real dataset uses ~3 s windows at ~50 Hz
// (151 samples) of 3-axis accelerometer data.
const (
	uniMiBWindow = 151
	uniMiBAxes   = 3
)

// ADL and fall class names follow the UniMiB SHAR taxonomy: 9 activities
// of daily living and 8 fall types.
var (
	uniMiBADLs = []string{
		"standing_up_from_sitting", "standing_up_from_lying", "walking",
		"running", "going_upstairs", "jumping", "going_downstairs",
		"lying_down", "sitting_down",
	}
	uniMiBFalls = []string{
		"falling_forward", "falling_rightward", "falling_backward",
		"falling_leftward", "falling_with_obstacle", "syncope",
		"falling_backward_sitting", "falling_frontal_knees",
	}
)

// UniMiBConfig parameterizes the accelerometer generator.
type UniMiBConfig struct {
	// Samples is the total number of windows to generate. The real
	// dataset has 11771; experiments use smaller deterministic draws.
	Samples int
	// Seed drives all randomness.
	Seed int64
}

// DefaultUniMiBConfig mirrors the real dataset's class mix at a
// laptop-friendly size.
func DefaultUniMiBConfig() UniMiBConfig {
	return UniMiBConfig{Samples: 2400, Seed: 1}
}

const (
	// uniMiBNoiseStd is the per-sample sensor noise in g.
	uniMiBNoiseStd = 0.12
	// fullRotationFrac is the fraction of windows recorded with a
	// completely arbitrary device orientation (phone loose in a
	// pocket); the rest vary only in yaw. Arbitrary orientations remove
	// the linear orientation cue while leaving magnitude patterns
	// intact, which is what caps the linear baseline well below the
	// nonlinear models, as in the real dataset.
	fullRotationFrac = 0.45
)

// adlProfile describes the signal generator for one ADL class.
type adlProfile struct {
	freq      float64 // dominant gait frequency, Hz
	amp       float64 // oscillation amplitude, g
	tiltStart float64 // torso tilt at window start, radians
	tiltEnd   float64 // torso tilt at window end, radians
	jerk      float64 // transient amplitude for posture transitions
}

var adlProfiles = []adlProfile{
	{freq: 0.8, amp: 0.25, tiltStart: 1.35, tiltEnd: 0.15, jerk: 0.7}, // standing up from sitting
	{freq: 0.6, amp: 0.25, tiltStart: 1.55, tiltEnd: 0.15, jerk: 0.8}, // standing up from lying
	{freq: 1.8, amp: 0.45, tiltStart: 0.12, tiltEnd: 0.12, jerk: 0},   // walking
	{freq: 2.8, amp: 1.1, tiltStart: 0.18, tiltEnd: 0.18, jerk: 0},    // running
	{freq: 1.5, amp: 0.6, tiltStart: 0.25, tiltEnd: 0.25, jerk: 0},    // upstairs
	{freq: 2.2, amp: 1.5, tiltStart: 0.1, tiltEnd: 0.1, jerk: 0},      // jumping
	{freq: 1.7, amp: 0.7, tiltStart: 0.2, tiltEnd: 0.2, jerk: 0},      // downstairs
	{freq: 0.5, amp: 0.2, tiltStart: 0.2, tiltEnd: 1.5, jerk: 0.6},    // lying down
	{freq: 0.7, amp: 0.25, tiltStart: 0.15, tiltEnd: 1.3, jerk: 0.65}, // sitting down
}

// fallProfile describes the signal generator for one fall class.
type fallProfile struct {
	impactAmp float64 // peak impact acceleration, g
	impactLen int     // impact transient length, samples
	endTilt   float64 // post-fall orientation, radians from vertical
	slow      bool    // syncope-style slow collapse (weak impact)
	azimuth   float64 // fall direction in the horizontal plane
}

var fallProfiles = []fallProfile{
	{impactAmp: 3.6, impactLen: 7, endTilt: 1.5, azimuth: 0},                // forward
	{impactAmp: 3.4, impactLen: 7, endTilt: 1.5, azimuth: math.Pi / 2},      // rightward
	{impactAmp: 3.8, impactLen: 8, endTilt: 1.55, azimuth: math.Pi},         // backward
	{impactAmp: 3.4, impactLen: 7, endTilt: 1.5, azimuth: -math.Pi / 2},     // leftward
	{impactAmp: 4.4, impactLen: 10, endTilt: 1.45, azimuth: 0.3},            // with obstacle
	{impactAmp: 1.6, impactLen: 14, endTilt: 1.5, slow: true, azimuth: 0.8}, // syncope
	{impactAmp: 2.8, impactLen: 8, endTilt: 1.2, azimuth: math.Pi},          // backward onto chair
	{impactAmp: 3.0, impactLen: 6, endTilt: 1.35, azimuth: 0.1},             // frontal on knees
}

// UniMiBClassNames returns the 17 activity class names (ADLs then falls).
func UniMiBClassNames() []string {
	names := make([]string, 0, len(uniMiBADLs)+len(uniMiBFalls))
	names = append(names, uniMiBADLs...)
	names = append(names, uniMiBFalls...)
	return names
}

// UniMiB generates the 17-class accelerometer dataset. Roughly 64% of
// windows are ADLs and 36% falls, matching the real corpus.
func UniMiB(cfg UniMiBConfig) (*dataset.Table, error) {
	if cfg.Samples <= 0 {
		return nil, fmt.Errorf("datagen: Samples must be positive, got %d", cfg.Samples)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	featNames := make([]string, 0, uniMiBWindow*uniMiBAxes)
	for _, axis := range []string{"ax", "ay", "az"} {
		for s := 0; s < uniMiBWindow; s++ {
			featNames = append(featNames, fmt.Sprintf("%s_%03d", axis, s))
		}
	}
	t := dataset.New("unimib-shar-synthetic", featNames, UniMiBClassNames())

	nFalls := int(0.36 * float64(cfg.Samples))
	nADLs := cfg.Samples - nFalls
	for i := 0; i < nADLs; i++ {
		class := i % len(uniMiBADLs)
		row := genADLWindow(rng, adlProfiles[class], uniMiBNoiseStd)
		rotateWindow(rng, row, rng.Float64() < fullRotationFrac)
		if err := t.Append(row, class); err != nil {
			return nil, err
		}
	}
	for i := 0; i < nFalls; i++ {
		class := i % len(uniMiBFalls)
		row := genFallWindow(rng, fallProfiles[class], uniMiBNoiseStd)
		rotateWindow(rng, row, rng.Float64() < fullRotationFrac)
		if err := t.Append(row, len(uniMiBADLs)+class); err != nil {
			return nil, err
		}
	}
	t.Shuffle(rng)
	return t, nil
}

// UniMiBBinary generates the binary fall-detection task of use case 1:
// class 0 "adl", class 1 "fall".
func UniMiBBinary(cfg UniMiBConfig) (*dataset.Table, error) {
	multi, err := UniMiB(cfg)
	if err != nil {
		return nil, err
	}
	bin := dataset.New(multi.Name+"-binary", multi.FeatureNames, []string{"adl", "fall"})
	for i, row := range multi.X {
		y := 0
		if multi.Y[i] >= len(uniMiBADLs) {
			y = 1
		}
		if err := bin.Append(row, y); err != nil {
			return nil, err
		}
	}
	return bin, nil
}

// genADLWindow synthesizes one ADL window: gravity projected through a
// (possibly transitioning) torso tilt plus class-periodic motion and
// sensor noise, with per-window subject jitter.
func genADLWindow(rng *rand.Rand, p adlProfile, noise float64) []float64 {
	amp := p.amp * (0.75 + 0.5*rng.Float64())
	freq := p.freq * (0.85 + 0.3*rng.Float64())
	phase := rng.Float64() * 2 * math.Pi
	azimuth := rng.Float64() * 2 * math.Pi
	tiltJit := rng.NormFloat64() * 0.12

	x := make([]float64, uniMiBWindow*uniMiBAxes)
	for s := 0; s < uniMiBWindow; s++ {
		frac := float64(s) / float64(uniMiBWindow-1)
		tilt := p.tiltStart + (p.tiltEnd-p.tiltStart)*smoothstep(frac) + tiltJit
		gx := math.Sin(tilt) * math.Cos(azimuth)
		gy := math.Sin(tilt) * math.Sin(azimuth)
		gz := math.Cos(tilt)

		osc := amp * math.Sin(2*math.Pi*freq*float64(s)/50+phase)
		// Posture-transition jerk near the middle of the window.
		var jerk float64
		if p.jerk > 0 {
			d := float64(s) - float64(uniMiBWindow)/2
			jerk = p.jerk * math.Exp(-d*d/80) * math.Sin(float64(s)/3)
		}
		x[s] = gx + 0.3*osc + jerk*0.5 + rng.NormFloat64()*noise
		x[uniMiBWindow+s] = gy + 0.3*osc + rng.NormFloat64()*noise
		x[2*uniMiBWindow+s] = gz + osc + jerk + rng.NormFloat64()*noise
	}
	return x
}

// genFallWindow synthesizes one fall: upright pre-fall activity, a
// free-fall dip followed by an impact spike at a random position, then a
// lying posture.
func genFallWindow(rng *rand.Rand, p fallProfile, noise float64) []float64 {
	impactAt := 40 + rng.Intn(60) // impact position varies per event
	impactAmp := p.impactAmp * (0.8 + 0.4*rng.Float64())
	azimuth := p.azimuth + rng.NormFloat64()*0.3
	endTilt := p.endTilt + rng.NormFloat64()*0.1
	preFreq := 1.2 + rng.Float64()
	phase := rng.Float64() * 2 * math.Pi

	x := make([]float64, uniMiBWindow*uniMiBAxes)
	for s := 0; s < uniMiBWindow; s++ {
		var gx, gy, gz, extra float64
		switch {
		case s < impactAt-p.impactLen:
			// Upright pre-fall motion.
			gz = 1
			extra = 0.2 * math.Sin(2*math.Pi*preFreq*float64(s)/50+phase)
		case s < impactAt:
			// Free fall: total acceleration collapses toward 0 g.
			fr := float64(impactAt-s) / float64(p.impactLen)
			gz = fr * 0.6
			if p.slow {
				gz = 0.4 + fr*0.5
			}
		case s < impactAt+p.impactLen:
			// Impact transient, decaying oscillation along the fall
			// direction.
			k := float64(s - impactAt)
			decay := math.Exp(-k / 3)
			spike := impactAmp * decay * math.Cos(k*1.9)
			gx = math.Sin(endTilt)*math.Cos(azimuth) + spike*math.Cos(azimuth)
			gy = math.Sin(endTilt)*math.Sin(azimuth) + spike*math.Sin(azimuth)
			gz = math.Cos(endTilt) + spike*0.7
		default:
			// Post-fall lying still.
			gx = math.Sin(endTilt) * math.Cos(azimuth)
			gy = math.Sin(endTilt) * math.Sin(azimuth)
			gz = math.Cos(endTilt)
		}
		x[s] = gx + extra*0.3 + rng.NormFloat64()*noise
		x[uniMiBWindow+s] = gy + extra*0.3 + rng.NormFloat64()*noise
		x[2*uniMiBWindow+s] = gz + extra + rng.NormFloat64()*noise
	}
	return x
}

// rotateWindow applies one rigid device rotation to every sample of the
// window, in place. When full is false the rotation is yaw-only (about the
// gravity axis), preserving the vertical component.
func rotateWindow(rng *rand.Rand, row []float64, full bool) {
	var r [3][3]float64
	if full {
		r = randomRotation(rng)
	} else {
		theta := rng.Float64() * 2 * math.Pi
		c, s := math.Cos(theta), math.Sin(theta)
		r = [3][3]float64{{c, -s, 0}, {s, c, 0}, {0, 0, 1}}
	}
	for i := 0; i < uniMiBWindow; i++ {
		x, y, z := row[i], row[uniMiBWindow+i], row[2*uniMiBWindow+i]
		row[i] = r[0][0]*x + r[0][1]*y + r[0][2]*z
		row[uniMiBWindow+i] = r[1][0]*x + r[1][1]*y + r[1][2]*z
		row[2*uniMiBWindow+i] = r[2][0]*x + r[2][1]*y + r[2][2]*z
	}
}

// randomRotation samples a uniformly distributed 3-D rotation matrix via
// Shoemake's random-quaternion construction.
func randomRotation(rng *rand.Rand) [3][3]float64 {
	u1, u2, u3 := rng.Float64(), rng.Float64(), rng.Float64()
	qx := math.Sqrt(1-u1) * math.Sin(2*math.Pi*u2)
	qy := math.Sqrt(1-u1) * math.Cos(2*math.Pi*u2)
	qz := math.Sqrt(u1) * math.Sin(2*math.Pi*u3)
	qw := math.Sqrt(u1) * math.Cos(2*math.Pi*u3)
	return [3][3]float64{
		{1 - 2*(qy*qy+qz*qz), 2 * (qx*qy - qz*qw), 2 * (qx*qz + qy*qw)},
		{2 * (qx*qy + qz*qw), 1 - 2*(qx*qx+qz*qz), 2 * (qy*qz - qx*qw)},
		{2 * (qx*qz - qy*qw), 2 * (qy*qz + qx*qw), 1 - 2*(qx*qx+qy*qy)},
	}
}

func smoothstep(t float64) float64 {
	if t < 0 {
		return 0
	}
	if t > 1 {
		return 1
	}
	return t * t * (3 - 2*t)
}
