package textplot_test

import (
	"fmt"

	"ixplens/internal/textplot"
)

// ExampleSparkline renders a weekly series the way cmd/ixpreport's
// -series view shows the Fig. 4/5 time series.
func ExampleSparkline() {
	weekly := []float64{1400, 1420, 1415, 1460, 1475, 1200, 1480, 1502}
	fmt.Println(textplot.Sparkline(weekly))
	// Output: ▅▆▅▇▇▁▇█
}
