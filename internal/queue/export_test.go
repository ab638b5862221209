package queue

// resume starts n consumers on a queue opened with Consumers < 0 — the hook
// that lets a test build a backlog first and drain it afterwards.
func (q *Queue) resume(n int) {
	for i := 0; i < n; i++ {
		q.wg.Add(1)
		go q.consume()
	}
}
