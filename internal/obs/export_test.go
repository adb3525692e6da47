package obs

// PeakSlabAllocated reports whether r holds a per-arc peak-queue slab.
func PeakSlabAllocated(r *Recorder) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.peakQueue != nil
}
