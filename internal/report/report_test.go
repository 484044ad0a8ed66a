package report

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	table := Table{
		Title:   "Demo",
		Headers: []string{"Name", "Value"},
	}
	table.AddRow("availability", 0.972)
	table.AddRow("disks", 480)
	out := table.Render()
	for _, want := range []string{"Demo", "Name", "Value", "availability", "0.972", "480"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 { // title, underline, header, separator, 2 rows
		t.Errorf("rendered table has %d lines, want 6:\n%s", len(lines), out)
	}
}

func TestFigureAddPointAndRender(t *testing.T) {
	fig := Figure{Title: "F", XLabel: "x", YLabel: "y"}
	fig.AddPoint("s1", Point{X: 1, Y: 0.9, HalfWidth: 0.01})
	fig.AddPoint("s1", Point{X: 2, Y: 0.8})
	fig.AddPoint("s2", Point{X: 1, Y: 0.5})
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d, want 2", len(fig.Series))
	}
	out := fig.Render()
	for _, want := range []string{"F", "x", "s1", "s2", "0.9 ±0.01", "0.8", "0.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered figure missing %q:\n%s", want, out)
		}
	}
	ys := fig.SeriesY("s1")
	if len(ys) != 2 || ys[0] != 0.9 || ys[1] != 0.8 {
		t.Errorf("SeriesY = %v", ys)
	}
	if fig.SeriesY("missing") != nil {
		t.Error("SeriesY for unknown series should be nil")
	}
}

func TestFigureRenderMissingCells(t *testing.T) {
	fig := Figure{Title: "gaps", XLabel: "x"}
	fig.AddPoint("a", Point{X: 1, Y: 1})
	fig.AddPoint("b", Point{X: 2, Y: 2})
	out := fig.Render()
	// Both x values appear even though each series has only one of them.
	if !strings.Contains(out, "1") || !strings.Contains(out, "2") {
		t.Errorf("figure with gaps rendered incorrectly:\n%s", out)
	}
}

func TestTableJSON(t *testing.T) {
	table := Table{Title: "Demo", Headers: []string{"Name", "Value"}}
	table.AddRow("availability", 0.972)
	out, err := table.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Title   string     `json:"title"`
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("table JSON invalid: %v\n%s", err, out)
	}
	if doc.Title != "Demo" || len(doc.Headers) != 2 || len(doc.Rows) != 1 {
		t.Errorf("decoded table = %+v", doc)
	}
	if doc.Rows[0][0] != "availability" {
		t.Errorf("row = %v", doc.Rows[0])
	}
}

func TestFigureJSON(t *testing.T) {
	fig := Figure{Title: "F", XLabel: "x", YLabel: "y"}
	fig.AddPoint("s1", Point{X: 1, Y: 0.9, HalfWidth: 0.01})
	fig.AddPoint("s1", Point{X: 2, Y: 0.8})
	out, err := fig.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Title  string `json:"title"`
		XLabel string `json:"x_label"`
		Series []struct {
			Name   string `json:"name"`
			Points []struct {
				X         float64 `json:"x"`
				Y         float64 `json:"y"`
				HalfWidth float64 `json:"half_width"`
			} `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("figure JSON invalid: %v\n%s", err, out)
	}
	if doc.XLabel != "x" || len(doc.Series) != 1 || len(doc.Series[0].Points) != 2 {
		t.Errorf("decoded figure = %+v", doc)
	}
	if doc.Series[0].Points[0].HalfWidth != 0.01 {
		t.Errorf("half width lost: %+v", doc.Series[0].Points[0])
	}
	// Zero half widths are omitted from the encoding.
	if strings.Contains(out, `"half_width": 0,`) {
		t.Errorf("zero half width encoded:\n%s", out)
	}
}

func TestTextArtifact(t *testing.T) {
	var a Artifact = Text("hello\nworld")
	if a.Render() != "hello\nworld" {
		t.Errorf("Render = %q", a.Render())
	}
	out, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Text string `json:"text"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("text JSON invalid: %v", err)
	}
	if doc.Text != "hello\nworld" {
		t.Errorf("decoded text = %q", doc.Text)
	}
}
