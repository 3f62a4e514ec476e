package ccmm

// appendCols appends row[cols[i]] for every in-range column, and the
// semiring zero for padding columns (index ≥ n), onto a typed message
// buffer: the gather step in front of every block-row send.
func appendCols[T any](dst []T, row []T, cols []int, n int, zero T) []T {
	for _, col := range cols {
		if col < n {
			dst = append(dst, row[col])
		} else {
			dst = append(dst, zero)
		}
	}
	return dst
}
