// Command lithosim images a GDSII clip through the 248 nm baseline
// optics and reports printed CDs along a cut line, demonstrating the
// proximity effects OPC exists to correct.
//
// Usage:
//
//	lithosim -gds file.gds -layer 2 [-cell NAME] [-cut y] [-defocus nm]
//	lithosim -demo            (built-in through-pitch demo)
package main

import (
	"flag"
	"fmt"
	"os"

	"goopc/internal/geom"
	"goopc/internal/layout"
	"goopc/internal/obs"
	"goopc/internal/optics"
	"goopc/internal/resist"
)

func main() {
	gdsPath := flag.String("gds", "", "GDSII input file")
	cellName := flag.String("cell", "", "cell to image (default: top)")
	layerNum := flag.Int("layer", 2, "layer to image")
	cutY := flag.Int("cut", 0, "y coordinate of the horizontal cut [DBU]")
	defocus := flag.Float64("defocus", 0, "defocus [nm]")
	demo := flag.Bool("demo", false, "run the built-in through-pitch demo")
	version := flag.Bool("version", false, "print the build fingerprint and exit")
	flag.Parse()
	if *version {
		fmt.Println("lithosim", obs.CollectBuildInfo())
		return
	}
	if err := run(*gdsPath, *cellName, layout.Layer(*layerNum), geom.Coord(*cutY), *defocus, *demo); err != nil {
		fmt.Fprintln(os.Stderr, "lithosim:", err)
		os.Exit(1)
	}
}

func run(gdsPath, cellName string, l layout.Layer, cutY geom.Coord, defocus float64, demo bool) error {
	var polys []geom.Polygon
	switch {
	case demo:
		for i, pitch := range []geom.Coord{360, 430, 520, 640, 800} {
			x := geom.Coord(i) * 4000
			for j := -3; j <= 3; j++ {
				lx := x + geom.Coord(j)*pitch
				polys = append(polys, geom.R(lx-90, -3000, lx+90, 3000).Polygon())
			}
		}
	case gdsPath != "":
		f, err := os.Open(gdsPath)
		if err != nil {
			return err
		}
		defer f.Close()
		ly, err := layout.ReadGDS(f)
		if err != nil {
			return err
		}
		cell := ly.Top
		if cellName != "" {
			cell = ly.Cell(cellName)
			if cell == nil {
				return fmt.Errorf("cell %q not found", cellName)
			}
		}
		polys = layout.Flatten(cell, l)
	default:
		return fmt.Errorf("need -gds or -demo")
	}
	if len(polys) == 0 {
		return fmt.Errorf("no geometry on layer %v", l)
	}

	sim, err := optics.New(optics.Default())
	if err != nil {
		return err
	}
	th, err := resist.CalibrateThreshold(sim, 250, 500)
	if err != nil {
		return err
	}
	fmt.Printf("optics: lambda=%.0f NA=%.2f sigma=%.2f threshold=%.3f defocus=%.0f nm\n",
		sim.S.LambdaNM, sim.S.NA, sim.S.SigmaOuter, th, defocus)

	var bb geom.Rect
	for i, p := range polys {
		if i == 0 {
			bb = p.BBox()
		} else {
			bb = bb.Union(p.BBox())
		}
	}
	// Image in windows along the cut and report each feature crossing
	// the cut line.
	reported := 0
	for _, p := range polys {
		pb := p.BBox()
		if cutY < pb.Y0 || cutY >= pb.Y1 {
			continue
		}
		cx := pb.Center().X
		window := geom.R(cx-1500, cutY-300, cx+1500, cutY+300)
		im, err := sim.AerialDefocus(clipTo(polys, window.Grow(1500)), window, defocus)
		if err != nil {
			return err
		}
		cd, err := resist.MeasureCD(im, th, float64(cx), float64(cutY), true, 1500)
		if err != nil {
			fmt.Printf("feature @%v drawn=%d: does not print (%v)\n", pb.Center(), pb.W(), err)
		} else {
			fmt.Printf("feature @%v drawn=%d printed=%.1f delta=%+.1f nm\n",
				pb.Center(), pb.W(), cd, cd-float64(pb.W()))
		}
		reported++
		if reported >= 40 {
			fmt.Println("... (further features suppressed)")
			break
		}
	}
	if reported == 0 {
		return fmt.Errorf("no feature crosses cut y=%d (layer bbox %v)", cutY, bb)
	}
	return nil
}

func clipTo(polys []geom.Polygon, window geom.Rect) []geom.Polygon {
	var out []geom.Polygon
	for _, p := range polys {
		if p.BBox().Touches(window) {
			out = append(out, p)
		}
	}
	return out
}
