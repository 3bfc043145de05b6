package main

import (
	"sync/atomic"
	"time"

	"repro/internal/disk"
)

// benchModel wraps a drive model so that every device it builds runs
// through benchDevice. It reaches the program through core.WithDevice.
type benchModel struct {
	disk.DeviceModel
	spin    time.Duration // planted slowdown per Service call
	tr      *tracer       // nil: no timing
	devices []*benchDevice
}

// NewDevice implements disk.DeviceModel.
func (m *benchModel) NewDevice() (disk.Device, error) {
	d, err := m.DeviceModel.NewDevice()
	if err != nil {
		return nil, err
	}
	bd := &benchDevice{Device: d, spin: m.spin, timed: m.tr != nil}
	m.devices = append(m.devices, bd)
	return bd, nil
}

// flush adds the devices' counters to the tracer.
func (m *benchModel) flush(tr *tracer) {
	for _, d := range m.devices {
		_, media, hits := d.Device.Stats()
		tr.add("disk.service_calls", float64(d.calls))
		tr.add("disk.verify_calls", float64(d.verifies))
		tr.timer("disk.service_s").ns += d.ns
		tr.add("disk.cache_hits", float64(hits))
		tr.add("disk.media_ops", float64(media))
	}
}

// benchDevice forwards every call to the wrapped device. Service spins
// first when a slowdown is planted, and is timed in a traced run.
type benchDevice struct {
	disk.Device
	spin  time.Duration
	timed bool

	calls, verifies, ns int64
}

// Service implements disk.Device.
func (d *benchDevice) Service(req disk.Request, now time.Duration) (disk.Result, error) {
	if !d.timed {
		spinFor(d.spin)
		return d.Device.Service(req, now)
	}
	d.calls++
	if req.Op == disk.OpVerify {
		d.verifies++
	}
	t := time.Now()
	spinFor(d.spin)
	res, err := d.Device.Service(req, now)
	d.ns += int64(time.Since(t))
	return res, err
}

// spins counts the planted spins, so a test can show which workloads
// the plant reaches.
var spins atomic.Int64

// spinFor busy-waits for d: the planted slowdown.
func spinFor(d time.Duration) {
	if d <= 0 {
		return
	}
	spins.Add(1)
	for t := time.Now(); time.Since(t) < d; {
	}
}
