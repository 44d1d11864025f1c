package viz

import (
	"fmt"
	"math"
	"strings"

	"rdfanalytics/internal/hifun"
)

// Series is chart-ready data: labeled numeric points.
type Series struct {
	Title  string
	Labels []string
	Values []float64
}

// AnswerSeries extracts a chart series from an answer: group labels (joined
// when multiple grouping columns exist) against the measureIdx-th measure.
func AnswerSeries(a *hifun.Answer, measureIdx int) (Series, error) {
	if measureIdx < 0 || measureIdx >= len(a.MeasureCols) {
		return Series{}, fmt.Errorf("viz: no measure column %d", measureIdx)
	}
	s := Series{Title: a.MeasureCols[measureIdx]}
	mi := len(a.GroupCols) + measureIdx
	for _, row := range a.Rows {
		var parts []string
		for i := range a.GroupCols {
			parts = append(parts, row[i].LocalName())
		}
		label := strings.Join(parts, " / ")
		if label == "" {
			label = s.Title
		}
		v, _ := row[mi].Float()
		s.Labels = append(s.Labels, label)
		s.Values = append(s.Values, v)
	}
	return s, nil
}

// ChartSVG renders the series as the named chart kind: pie, column, line,
// treemap or spiral; any other kind is a bar chart. It fixes every chart's
// size, so the renderers take theirs as given.
func ChartSVG(kind string, s Series) string {
	switch kind {
	case "pie":
		return PieChartSVG(s, 420)
	case "column":
		return ColumnChartSVG(s, 640, 320)
	case "line":
		return LineChartSVG(s, 640, 320)
	case "treemap":
		return TreemapSVG(s, 640, 400)
	case "spiral":
		items := make([]SpiralItem, len(s.Values))
		for i := range s.Values {
			items[i] = SpiralItem{Label: s.Labels[i], Value: s.Values[i]}
		}
		return SpiralSVG(SpiralLayout{}.Layout(items), 4)
	}
	return BarChartSVG(s, 640)
}

const svgHeader = `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" font-family="sans-serif" font-size="11">` + "\n"

var palette = []string{
	"#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
	"#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
}

// BarChartSVG renders a horizontal bar chart of the series.
func BarChartSVG(s Series, width int) string {
	rowH := 22
	labelW := 140
	height := rowH*len(s.Values) + 40
	maxV := 1e-9
	for _, v := range s.Values {
		maxV = math.Max(maxV, math.Abs(v))
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, svgHeader, width, height, width, height)
	fmt.Fprintf(&sb, `<text x="4" y="14" font-weight="bold">%s</text>`+"\n", escapeXML(s.Title))
	for i, v := range s.Values {
		y := 28 + i*rowH
		w := (float64(width-labelW-60) * math.Abs(v)) / maxV
		fmt.Fprintf(&sb, `<text x="%d" y="%d" text-anchor="end">%s</text>`+"\n",
			labelW-6, y+14, escapeXML(trim(s.Labels[i], 22)))
		fmt.Fprintf(&sb, `<rect x="%d" y="%d" width="%.1f" height="%d" fill="%s"/>`+"\n",
			labelW, y, w, rowH-6, palette[i%len(palette)])
		fmt.Fprintf(&sb, `<text x="%.1f" y="%d">%s</text>`+"\n",
			float64(labelW)+w+4, y+14, formatNum(v))
	}
	sb.WriteString("</svg>\n")
	return sb.String()
}

// ColumnChartSVG renders a vertical column chart.
func ColumnChartSVG(s Series, width, height int) string {
	n := len(s.Values)
	if n == 0 {
		return fmt.Sprintf(svgHeader, width, height, width, height) + "</svg>\n"
	}
	maxV := 1e-9
	for _, v := range s.Values {
		maxV = math.Max(maxV, math.Abs(v))
	}
	plotH := height - 60
	colW := float64(width-40) / float64(n)
	var sb strings.Builder
	fmt.Fprintf(&sb, svgHeader, width, height, width, height)
	fmt.Fprintf(&sb, `<text x="4" y="14" font-weight="bold">%s</text>`+"\n", escapeXML(s.Title))
	for i, v := range s.Values {
		h := float64(plotH) * math.Abs(v) / maxV
		x := 20 + float64(i)*colW
		y := 20 + float64(plotH) - h
		fmt.Fprintf(&sb, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"/>`+"\n",
			x+2, y, colW-4, h, palette[i%len(palette)])
		fmt.Fprintf(&sb, `<text x="%.1f" y="%d" text-anchor="middle">%s</text>`+"\n",
			x+colW/2, height-24, escapeXML(trim(s.Labels[i], 10)))
		fmt.Fprintf(&sb, `<text x="%.1f" y="%.1f" text-anchor="middle">%s</text>`+"\n",
			x+colW/2, y-4, formatNum(v))
	}
	sb.WriteString("</svg>\n")
	return sb.String()
}

// PieChartSVG renders a pie chart (absolute values).
func PieChartSVG(s Series, size int) string {
	total := 0.0
	for _, v := range s.Values {
		total += math.Abs(v)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, svgHeader, size, size, size, size)
	if total == 0 {
		sb.WriteString("</svg>\n")
		return sb.String()
	}
	cx, cy := float64(size)/2, float64(size)/2
	r := float64(size)/2 - 60
	angle := -math.Pi / 2
	for i, v := range s.Values {
		frac := math.Abs(v) / total
		a2 := angle + frac*2*math.Pi
		large := 0
		if frac > 0.5 {
			large = 1
		}
		x1, y1 := cx+r*math.Cos(angle), cy+r*math.Sin(angle)
		x2, y2 := cx+r*math.Cos(a2), cy+r*math.Sin(a2)
		if frac >= 0.999999 {
			fmt.Fprintf(&sb, `<circle cx="%.1f" cy="%.1f" r="%.1f" fill="%s"/>`+"\n", cx, cy, r, palette[i%len(palette)])
		} else {
			fmt.Fprintf(&sb,
				`<path d="M%.1f,%.1f L%.1f,%.1f A%.1f,%.1f 0 %d 1 %.1f,%.1f Z" fill="%s"/>`+"\n",
				cx, cy, x1, y1, r, r, large, x2, y2, palette[i%len(palette)])
		}
		mid := (angle + a2) / 2
		lx, ly := cx+(r+26)*math.Cos(mid), cy+(r+26)*math.Sin(mid)
		fmt.Fprintf(&sb, `<text x="%.1f" y="%.1f" text-anchor="middle">%s (%s)</text>`+"\n",
			lx, ly, escapeXML(trim(s.Labels[i], 14)), formatNum(v))
		angle = a2
	}
	sb.WriteString("</svg>\n")
	return sb.String()
}

// LineChartSVG renders a line chart (labels along x in order).
func LineChartSVG(s Series, width, height int) string {
	n := len(s.Values)
	var sb strings.Builder
	fmt.Fprintf(&sb, svgHeader, width, height, width, height)
	fmt.Fprintf(&sb, `<text x="4" y="14" font-weight="bold">%s</text>`+"\n", escapeXML(s.Title))
	if n > 1 {
		maxV, minV := math.Inf(-1), math.Inf(1)
		for _, v := range s.Values {
			maxV = math.Max(maxV, v)
			minV = math.Min(minV, v)
		}
		if maxV == minV {
			maxV = minV + 1
		}
		plotH := float64(height - 70)
		dx := float64(width-50) / float64(n-1)
		var pts []string
		for i, v := range s.Values {
			x := 25 + float64(i)*dx
			y := 25 + plotH*(1-(v-minV)/(maxV-minV))
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", x, y))
			fmt.Fprintf(&sb, `<circle cx="%.1f" cy="%.1f" r="3" fill="%s"/>`+"\n", x, y, palette[0])
			fmt.Fprintf(&sb, `<text x="%.1f" y="%d" text-anchor="middle">%s</text>`+"\n",
				x, height-28, escapeXML(trim(s.Labels[i], 8)))
		}
		fmt.Fprintf(&sb, `<polyline points="%s" fill="none" stroke="%s" stroke-width="2"/>`+"\n",
			strings.Join(pts, " "), palette[0])
	}
	sb.WriteString("</svg>\n")
	return sb.String()
}

// SpiralSVG renders a spiral placement.
func SpiralSVG(ps []Placed, scale float64) string {
	if scale <= 0 {
		scale = 4
	}
	minX, minY, maxX, maxY := Bounds(ps)
	pad := 10.0
	w := int((maxX-minX)*scale + 2*pad)
	h := int((maxY-minY)*scale + 2*pad)
	if w < 10 {
		w = 10
	}
	if h < 10 {
		h = 10
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, svgHeader, w, h, w, h)
	for i, p := range ps {
		x := (p.X-minX-p.Side/2)*scale + pad
		y := (p.Y-minY-p.Side/2)*scale + pad
		side := p.Side * scale
		fmt.Fprintf(&sb, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s" stroke="#333"><title>%s: %s</title></rect>`+"\n",
			x, y, side, side, palette[i%len(palette)], escapeXML(p.Label), formatNum(p.Value))
	}
	sb.WriteString("</svg>\n")
	return sb.String()
}

func trim(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

func formatNum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.2f", v)
}

func escapeXML(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
