type t = { device : Iosim.Device.t }

let create device = { device }
let device t = t.device
