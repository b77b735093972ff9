module swcam

go 1.23
